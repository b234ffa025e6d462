package sim

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 core).
// Every stochastic element of the simulation draws from a seeded RNG so
// experiments replay bit-identically.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// DeriveSeed deterministically derives a child seed from a base seed and a
// path of stream labels (experiment id, config point, stream name, ...).
// The derivation depends only on its inputs — never on scheduling or
// allocation order — so concurrent experiment points draw from disjoint,
// reproducible streams regardless of worker count. Labels are hashed
// FNV-1a style with a separator between path elements, then mixed with the
// base seed through the splitmix64 finalizer.
func DeriveSeed(base uint64, labels ...string) uint64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= 0x100000001b3
		}
		h ^= 0x9e3779b97f4a7c15 // path separator: "a","bc" != "ab","c"
		h *= 0x100000001b3
	}
	z := h ^ (base + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). n must be positive.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ZipfGen samples from a Zipf distribution over ranks [0, n) with exponent
// theta using precomputed cumulative weights (exact inverse-CDF sampling).
type ZipfGen struct {
	rng *RNG
	cum []float64
}

// NewZipfGen builds a sampler over n ranks with exponent theta >= 0.
func NewZipfGen(rng *RNG, n int, theta float64) *ZipfGen {
	if n <= 0 {
		panic("sim: ZipfGen with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / math.Pow(float64(i+1), theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfGen{rng: rng, cum: cum}
}

// Next draws a rank in [0, n), rank 0 being the most popular.
func (z *ZipfGen) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
