package dmzap

// Gates on the request records (writeReq, readReq and its part slots) and
// on the zone that stands in for a record of its own write in flight: what
// panics, what comes home, and the two request shapes that are easy to get
// wrong on recycled state — every part completing inside the loop that is
// still issuing, and no part at all.

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

// assertRecordsHome checks a drained adapter: every record it ever made is
// back on its free list, nothing is parked and no zone is busy.
func assertRecordsHome(t *testing.T, a *Adapter) {
	t.Helper()
	if a.made.write != len(a.writeFree) || a.made.read != len(a.readFree) {
		t.Fatalf("records made %+v, on the free lists %d writes and %d reads", a.made, len(a.writeFree), len(a.readFree))
	}
	if a.stalled.Len() != 0 {
		t.Fatalf("%d blocks still parked", a.stalled.Len())
	}
	for z := range a.zones {
		if zq := &a.zones[z]; zq.busy || zq.done != nil || zq.queue.Len() != 0 {
			t.Fatalf("zone %d: busy=%v queued=%d after drain", z, zq.busy, zq.queue.Len())
		}
	}
}

func TestRecordDiscipline(t *testing.T) {
	_, a, _, _ := newAdapter(t)
	w := a.getWrite()
	a.putWrite(w)
	mustPanic(t, "write record put twice", func() { a.putWrite(w) })
	mustPanic(t, "write record completed after put", func() { w.onBlock(zns.WriteResult{}) })

	rd := a.getRead()
	rd.parts = append(rd.parts, &readPart{rd: rd})
	a.putRead(rd)
	mustPanic(t, "read record put twice", func() { a.putRead(rd) })
	mustPanic(t, "read part completed after put", func() { rd.parts[0].complete(zns.ReadResult{}) })

	mustPanic(t, "completion for an idle zone", func() { a.zones[0].onDone(zns.WriteResult{}) })

	w = a.getWrite()
	w.f.Arm(w.onAll)
	w.f.Add(1)
	w.f.Seal()
	w.onBlock(zns.WriteResult{}) // completes the request and puts w back
	mustPanic(t, "block completed twice", func() { w.onBlock(zns.WriteResult{}) })
}

// TestRecordsComeHome drives overwrites deep into garbage collection (user
// blocks park at the free-zone cliff and are re-placed by the collector),
// with reads of mapped, partly mapped and unmapped ranges and requests
// nobody waits for in between.
func TestRecordsComeHome(t *testing.T) {
	eng, a, _, _ := newAdapter(t)
	span := a.Blocks() * 2 / 5
	rng := sim.NewRNG(5)
	reads := 0
	for i := 0; i < int(span)*4; i++ {
		lba := rng.Int63n(span - 8)
		a.Write(lba, 1+rng.Intn(8), nil, nil)
		a.Read(lba, 4, func(blockdev.ReadResult) { reads++ })
		if i%16 == 0 {
			eng.Run()
		}
	}
	a.Read(a.Blocks()-4, 4, func(blockdev.ReadResult) { reads++ }) // nothing mapped
	a.Read(a.Blocks()-4, 4, nil)                                   // and nobody to tell
	eng.Run()
	if a.gcEvents == 0 {
		t.Fatal("GC never ran: the parked-block path was not exercised")
	}
	if reads != int(span)*4+1 {
		t.Fatalf("%d of %d reads completed", reads, int(span)*4+1)
	}
	assertRecordsHome(t, a)
}

// syncBackend completes every command inside the call that submits it.
type syncBackend struct {
	eng *sim.Engine
	wp  []int64
}

func (b *syncBackend) Engine() *sim.Engine { return b.eng }
func (b *syncBackend) BlockSize() int      { return 4096 }
func (b *syncBackend) ZoneBlocks() int64   { return 64 }
func (b *syncBackend) Zones() int          { return len(b.wp) }
func (b *syncBackend) MaxOpenZones() int   { return 8 }
func (b *syncBackend) Finish(int) error    { return nil }
func (b *syncBackend) Reset(z int, done func(error)) {
	b.wp[z] = 0
	done(nil)
}
func (b *syncBackend) Write(z int, lba int64, n int, _ []byte, _ zns.WriteTag, done func(zns.WriteResult)) {
	var err error
	if lba != b.wp[z] {
		err = zns.ErrNotSequential
	}
	b.wp[z] += int64(n)
	done(zns.WriteResult{Err: err})
}
func (b *syncBackend) Read(_ int, _ int64, _ int, done func(zns.ReadResult)) {
	done(zns.ReadResult{})
}

// TestPartsCompleteInsideTheIssuingLoop: over a backend that answers inside
// the submitting call every block of a Write, and every run of a Read, is
// done before its siblings are issued. The request still completes once —
// when the loop seals it — and its record is back by the time Write returns.
func TestPartsCompleteInsideTheIssuingLoop(t *testing.T) {
	b := &syncBackend{eng: sim.NewEngine(), wp: make([]int64, 32)}
	a, err := New(b, DefaultConfig(b.Zones(), b.MaxOpenZones()), nil)
	if err != nil {
		t.Fatal(err)
	}
	var werrs, rerrs []error
	for lba := int64(0); lba < 160; lba += 16 {
		a.Write(lba, 16, nil, func(r blockdev.WriteResult) { werrs = append(werrs, r.Err) })
	}
	a.Read(0, 160, func(r blockdev.ReadResult) { rerrs = append(rerrs, r.Err) }) // several zones, many runs
	if len(werrs) != 10 || len(rerrs) != 1 {
		t.Fatalf("%d of 10 writes and %d of 1 reads completed inside their calls", len(werrs), len(rerrs))
	}
	for _, err := range append(werrs, rerrs...) {
		if err != nil {
			t.Fatalf("request failed: %v", err)
		}
	}
	assertRecordsHome(t, a)
	if a.made.write != 1 || a.made.read != 1 {
		t.Fatalf("made %+v records for requests issued one after the other, want one of each", a.made)
	}
}
