package main

import "math"

// rng is the benchmark's own generator (xorshift64* seeded through one
// splitmix64 round), so no change to sim.RNG or to the experiments'
// seed derivation can move the benchmark's inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15 // xorshift has one fixed point: zero
	}
	return &rng{s: z}
}

// subSeed derives an independent stream seed for (seed, stream).
func subSeed(seed, stream uint64) uint64 {
	return newRNG(seed ^ (stream+1)*0xd6e8feb86659fd93).next()
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a uniform integer in [0, n); n must be positive. The
// modulo bias is below 2^-40 for every n the benchmark uses.
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(i) proportional to 1/(i+1)^theta by
// inverting a precomputed CDF: exact for any theta, and n is small (the
// fleet's arrays, the ghost-cache rung's key space).
type zipf struct {
	cdf []float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
