package sim

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
