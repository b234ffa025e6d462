package ftl

// Gates on the request record (req): what panics and what comes home. A
// request here is a chain of stages, not a fan-out, so there is no part to
// complete early and none to be missing.

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

func TestRecordDiscipline(t *testing.T) {
	_, d := newDev(t)
	r := d.getReq()
	d.putReq(r)
	mustPanic(t, "request record put twice", func() { d.putReq(r) })
	mustPanic(t, "request record fired after put", func() { r.Fire(0, 0) })
}

// TestRecordsComeHome overwrites a working set at depth until the collector
// runs — writes queue for cache credit (waiters) and park below the critical
// watermark (stalled) on the way — with reads and requests for nobody in
// between, and checks that a drained device has every record back.
func TestRecordsComeHome(t *testing.T) {
	eng, d := newDev(t)
	span := d.Blocks() / 2
	rng := sim.NewRNG(11)
	writes, reads, waited, parked := 0, 0, 0, 0
	wdone := func(r blockdev.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		writes++
		waited, parked = max(waited, d.waiters.Len()), max(parked, d.stalled.Len())
	}
	rdone := func(blockdev.ReadResult) { reads++ }
	const rounds = 3000
	for i := 0; i < rounds; i++ {
		lba := rng.Int63n(span - 8)
		d.Write(lba, 1+rng.Intn(8), nil, wdone)
		d.Read(lba, 2, rdone)
		if i%100 == 3 {
			d.Write(lba, 1, nil, nil)
			d.Read(lba, 1, nil)
		}
		if i%32 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if writes != rounds || reads != rounds {
		t.Fatalf("%d writes and %d reads of %d completed", writes, reads, rounds)
	}
	if d.gcEvents == 0 || waited == 0 || parked == 0 {
		t.Fatalf("gc events %d, most waiting for cache credit %d, most parked at the cliff %d: a queue was not exercised",
			d.gcEvents, waited, parked)
	}
	if d.waiters.Len() != 0 || d.stalled.Len() != 0 || d.cacheCredit != d.cfg.CacheBlocks {
		t.Fatalf("after drain: %d waiting, %d parked, cache credit %d of %d",
			d.waiters.Len(), d.stalled.Len(), d.cacheCredit, d.cfg.CacheBlocks)
	}
	if d.reqMade != len(d.reqFree) {
		t.Fatalf("%d request records made, %d on the free list", d.reqMade, len(d.reqFree))
	}
}
