package zapraid

// Gates on the request records (writeReq, chunkRec, readReq): what panics,
// what comes home, and the read that issues no part. The driver queue never
// answers inside the submitting call, so no part can complete inside the
// loop that issues it.

import (
	"testing"
	"time"

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
// partly mapped and unmapped ranges and requests for nobody in between.
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
	if a.gcEvents == 0 {
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

// TestReleaseAtCliffTerminates submits bursts of 512 writes between engine
// runs, so chunks park at the free-zone cliff of one member while another
// collects. The release loop used to pop the oldest parked chunk because
// the collecting member had room and place parked it again because another
// was at the cliff, for ever (ROADMAP item 1h); the watchdog turns that
// into a failure instead of a hung suite.
func TestReleaseAtCliffTerminates(t *testing.T) {
	eng, a, _ := newArray(t)
	span := a.Blocks() / 4
	rng := sim.NewRNG(13)
	rounds, writes := int(span)*2, 0
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < rounds; i++ {
			a.Write(rng.Int63n(span-8), 1+rng.Intn(8), nil, func(r blockdev.WriteResult) {
				if r.Err == nil {
					writes++
				}
			})
			if i%512 == 511 {
				eng.Run()
			}
		}
		eng.Run()
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("the engine is still running: a parked chunk is being re-parked without end")
	}
	if writes != rounds {
		t.Fatalf("%d of %d writes completed", writes, rounds)
	}
	if a.stalled.Len() != 0 {
		t.Fatalf("%d chunks still parked", a.stalled.Len())
	}
	if a.gcEvents == 0 {
		t.Fatal("GC never ran")
	}
}
