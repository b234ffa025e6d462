package kvstore

import (
	"fmt"

	"biza/internal/metrics"
	"biza/internal/sim"
)

// BenchSpec is a db_bench-like workload (§5.3: fillseq, fillrandom,
// fillseekseq with 16 B keys and 1 KiB values).
type BenchSpec struct {
	Name      string
	Ops       int
	KeyBytes  int
	ValueB    int
	RandomKey bool
	SeekPhase bool // fill sequentially, then seek every key in order
	Depth     int
	Seed      uint64
}

// DefaultBench returns the paper's db_bench parameters for a workload name
// (fillseq, fillrandom, fillseekseq).
func DefaultBench(name string, ops int) (BenchSpec, error) {
	spec := BenchSpec{Name: name, Ops: ops, KeyBytes: 16, ValueB: 1024, Depth: 8, Seed: 99}
	switch name {
	case "fillseq":
	case "fillrandom":
		spec.RandomKey = true
	case "fillseekseq":
		spec.SeekPhase = true
	default:
		return spec, fmt.Errorf("kvstore: unknown benchmark %q", name)
	}
	return spec, nil
}

// BenchResult reports a run.
type BenchResult struct {
	Ops     uint64
	Errors  uint64
	Elapsed sim.Time
}

// OpsPerSec reports the operation rate.
func (r BenchResult) OpsPerSec() float64 { return metrics.OpsPerSec(r.Ops, int64(r.Elapsed)) }

// RunBench drives the spec against db with a closed loop.
func RunBench(eng *sim.Engine, db *DB, spec BenchSpec) BenchResult {
	rng := sim.NewRNG(spec.Seed ^ 0xdbbe)
	value := make([]byte, spec.ValueB)
	key := func(i int) string {
		n := i
		if spec.RandomKey {
			n = rng.Intn(spec.Ops * 4)
		}
		return fmt.Sprintf("%0*d", spec.KeyBytes, n)
	}
	res := BenchResult{}
	start := eng.Now()
	issued := 0
	var issue func()
	complete := func(err error) {
		if err != nil {
			res.Errors++
		} else {
			res.Ops++
		}
		issue()
	}
	issue = func() {
		if issued >= spec.Ops {
			return
		}
		i := issued
		issued++
		db.Put(key(i), value, complete)
	}
	depth := spec.Depth
	if depth < 1 {
		depth = 1
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	eng.Run()

	if spec.SeekPhase {
		seekIssued := 0
		var seek func()
		seekDone := func(_ string, _ []byte, err error) {
			if err != nil {
				res.Errors++
			} else {
				res.Ops++
			}
			seek()
		}
		seek = func() {
			if seekIssued >= spec.Ops {
				return
			}
			i := seekIssued
			seekIssued++
			db.Seek(fmt.Sprintf("%0*d", spec.KeyBytes, i), seekDone)
		}
		for i := 0; i < depth; i++ {
			seek()
		}
		eng.Run()
	}
	res.Elapsed = eng.Now() - start
	return res
}
