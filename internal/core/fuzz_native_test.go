package core

import "testing"

// FuzzModelSweep drives the model sweep of fuzz_seed_test.go under Go's
// native fuzzer: for any seed, the engine must honor its write/trim/
// degraded-read contract on aged devices with reordering drivers. The
// checked-in corpus mirrors TestModelSeedSweep's seeds; CI runs a short
// smoke (-fuzz=Fuzz -fuzztime=10s), while local runs can fuzz longer to
// explore new schedules.
func FuzzModelSweep(f *testing.F) {
	for _, seed := range []uint64{101, 202, 303, 404} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runModelSweep(t, seed, nil)
	})
}
