package zapraid

// Gates on the request records (writeReq, chunkRec, readReq): what panics,
// what comes home, and the read that issues no part. The driver queue never
// answers inside the submitting call, so no part can complete inside the
// loop that issues it.

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
	"biza/internal/zns"
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
	_, a, _ := newArray(t)
	c := a.getChunk()
	a.putChunk(c)
	mustPanic(t, "chunk record put twice", func() { a.putChunk(c) })

	w := a.getWrite()
	a.putWrite(w)
	mustPanic(t, "write record put twice", func() { a.putWrite(w) })

	rd := a.getRead()
	a.putRead(rd)
	mustPanic(t, "read record put twice", func() { a.putRead(rd) })
	mustPanic(t, "read part completed after put", func() { rd.onPart(zns.ReadResult{}) })

	w = a.getWrite()
	w.f.Arm(w.onAll)
	w.f.Add(1)
	w.f.Seal()
	w.onChunk(nil) // completes the request and puts w back
	mustPanic(t, "chunk completed twice", func() { w.onChunk(nil) })
}

// TestRecordsComeHome overwrites a working set until the collectors run
// (migrated chunks travel on chunk records too), with reads of mapped,
// partly mapped and unmapped ranges and requests for nobody in between. The
// bursts stay short of the free-zone cliff: a chunk parked there for one
// member can be re-parked for another by the collector's release loop,
// which then never ends (ROADMAP item 1h, the same at the parent).
func TestRecordsComeHome(t *testing.T) {
	eng, a, _ := newArray(t)
	span := a.Blocks() / 4
	rng := sim.NewRNG(13)
	writes, reads := 0, 0
	wdone := func(r blockdev.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		writes++
	}
	rdone := func(r blockdev.ReadResult) {
		if r.Err != nil {
			t.Errorf("read: %v", r.Err)
		}
		reads++
	}
	rounds := int(span) * 2
	for i := 0; i < rounds; i++ {
		lba := rng.Int63n(span - 8)
		a.Write(lba, 1+rng.Intn(8), nil, wdone)
		a.Read(lba, 4, rdone)
		if i%64 == 5 {
			a.Write(lba, 2, nil, nil)
			a.Read(lba, 2, nil)
		}
		if i%16 == 0 {
			eng.Run()
		}
	}
	a.Read(a.Blocks()-4, 4, rdone) // nothing mapped: the record itself is the answering event
	a.Read(a.Blocks()-4, 4, nil)
	eng.Run()
	if writes != rounds || reads != rounds+1 {
		t.Fatalf("%d of %d writes and %d of %d reads completed", writes, rounds, reads, rounds+1)
	}
	if a.GCEvents() == 0 {
		t.Fatal("GC never ran")
	}
	if a.stalled.Len() != 0 {
		t.Fatalf("%d chunks still parked", a.stalled.Len())
	}
	got := a.made
	got.chunk, got.write, got.read = len(a.chunkFree), len(a.writeFree), len(a.readFree)
	if got != a.made {
		t.Fatalf("records made %+v, on the free lists %+v", a.made, got)
	}
}
