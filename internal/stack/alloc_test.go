package stack

import (
	"testing"

	"biza/internal/blockdev"
)

// TestBaselineSteadyStateAllocFree gates the baselines' request paths
// (raizn, dmzap, mdraid, ftl, zapraid and the RAIZN shim): on a warmed
// performance-mode platform one 64 KiB sequential write, one 4 KiB
// overwrite, one 4 KiB read of mapped data and the run that drains them
// allocate nothing — every request travels on recycled records. The window
// stays clear of the collectors, which keep their per-victim closures, and
// what a newly opened zone costs (a handful of objects every few hundred
// blocks, in zns and the zone log) is below one object per round, which is
// what AllocsPerRun reports.
func TestBaselineSteadyStateAllocFree(t *testing.T) {
	tests := []struct {
		name string
		kind Kind
		// wantAppendOnly: the device takes sequential writes only (RAIZN's
		// shim), so the small write appends instead of overwriting.
		wantAppendOnly bool
	}{
		{name: "RAIZN behind the sequential shim", kind: KindRAIZN, wantAppendOnly: true},
		{name: "dmzap over RAIZN", kind: KindDmzapRAIZN},
		{name: "mdraid over dmzap", kind: KindMdraidDmzap},
		{name: "mdraid over conventional SSDs", kind: KindMdraidConvSSD},
		{name: "ZapRAID", kind: KindZapRAID},
	}
	const seq, warm, rounds = 64 << 10 / 4096, 300, 100
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts()
			opts.ZNS.StoreData, opts.FTL.StoreData = false, false
			p, err := New(tc.kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			wdone := func(r blockdev.WriteResult) {
				if r.Err != nil {
					failed++
				}
			}
			rdone := func(r blockdev.ReadResult) {
				if r.Err != nil {
					failed++
				}
			}
			next := int64(0)
			step := func() {
				p.Dev.Write(next, seq, nil, wdone)
				next += seq
				if tc.wantAppendOnly {
					p.Dev.Write(next, 1, nil, wdone)
					next++
				} else {
					p.Dev.Write(next/2, 1, nil, wdone)
				}
				p.Dev.Read(next/3, 1, rdone)
				p.Eng.Run()
			}
			for i := 0; i < warm; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(rounds, step); allocs != 0 {
				t.Errorf("a warm round of write, overwrite and read allocates %v objects, want 0", allocs)
			}
			if failed != 0 {
				t.Fatalf("%d requests failed", failed)
			}
			if next+seq > p.Dev.Blocks() {
				t.Fatalf("the rounds ran off the device (%d of %d blocks)", next, p.Dev.Blocks())
			}
		})
	}
}
