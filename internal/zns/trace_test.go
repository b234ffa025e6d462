package zns

import (
	"testing"

	"biza/internal/obs"
	"biza/internal/sim"
)

// TestDisabledTracerAllocatesNothing is the near-free-when-disabled
// contract: every obs entry point on the ZNS hot path is a nil-receiver
// no-op, so an untraced device must not allocate (or do any work) for
// observability.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	var tr *obs.Trace // disabled
	if allocs := testing.AllocsPerRun(1000, func() {
		span := tr.SpanBegin(1, obs.LayerZNS, obs.OpWrite, 0, 0, 0, 16)
		tr.Mark(span, 1, 2, obs.LayerZNS, obs.PhaseBus, 0, 0, 0)
		tr.Segment(1, 2, obs.LayerZNS, obs.SegProgramDie, 0, 0, 0, 16)
		tr.Event(1, obs.LayerZNS, obs.EvZoneState, 0, 0, 0, 1, 0)
		tr.Counter(1, obs.ProbeKey(obs.ProbeQueueDepth, 0, 0), 1)
		tr.SpanEnd(span, 2, false)
	}); allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f per op, want 0", allocs)
	}
}

// benchWrites drives n sequential 64 KiB writes through a fresh device
// (tracer optionally attached) and reports virtual completion.
func benchWrites(b *testing.B, tr *obs.Trace) {
	b.Helper()
	eng := sim.NewEngine()
	cfg := TestConfig()
	d, err := New(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	d.SetTracer(tr, 0)
	if err := d.Open(0, true); err != nil {
		b.Fatal(err)
	}
	blocks := 16 // 64 KiB
	zone, lba := 0, int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lba+int64(blocks) > cfg.ZoneBlocks {
			// ZRWA zones only reach Full once finished; finish explicitly
			// so rolling cannot exhaust the open-zone budget.
			if err := d.Finish(zone); err != nil {
				b.Fatal(err)
			}
			eng.Run()
			zone++
			lba = 0
			if zone >= cfg.NumZones {
				// Wrap: recycle the device so b.N is unbounded.
				for z := 0; z < cfg.NumZones; z++ {
					d.Reset(z, nil)
				}
				eng.Run()
				zone = 0
			}
			if err := d.Open(zone, true); err != nil {
				b.Fatal(err)
			}
		}
		done := false
		d.Write(zone, lba, blocks, nil, nil, TagUserData, func(r WriteResult) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			done = true
		})
		eng.Run()
		if !done {
			b.Fatal("write never completed")
		}
		lba += int64(blocks)
	}
}

// BenchmarkWriteUntraced / BenchmarkWriteTraced measure the tracer's
// overhead on the ZNS write path. The untraced variant is the shipping
// fast path (nil-check only) and must stay within noise of the seed;
// compare the pair to bound the enabled-tracer cost.
func BenchmarkWriteUntraced(b *testing.B) {
	benchWrites(b, nil)
}

func BenchmarkWriteTraced(b *testing.B) {
	benchWrites(b, obs.New(obs.Config{}))
}

// ZoneState.String reads obs's table by value, so the numbering is the
// contract: a state inserted mid-enum must fail here, not rename states in
// every trace.
func TestZoneStateNames(t *testing.T) {
	for s, want := range map[ZoneState]string{
		ZoneEmpty: "empty", ZoneImplicitOpen: "implicit-open", ZoneExplicitOpen: "explicit-open",
		ZoneClosed: "closed", ZoneFull: "full", ZoneReadOnly: "read-only", ZoneOffline: "offline",
		ZoneOffline + 1: "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("ZoneState(%d) = %q, want %q", s, got, want)
		}
	}
}
