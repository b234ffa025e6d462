package mdraid

// Gates on the recycled records (stripe entries, member writes, writeReq,
// readReq and its part slots): what panics, what comes home, and the request
// shapes that are easy to get wrong on recycled state — every part
// completing inside the loop that is still issuing, and no part at all.

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

// assertRecordsHome checks a drained array: the cache is empty, nobody
// waits for an acknowledgement, and every record ever made is back on its
// free list.
func assertRecordsHome(t *testing.T, a *Array) {
	t.Helper()
	if len(a.cache) != 0 || a.lru.next != &a.lru || a.lru.prev != &a.lru {
		t.Fatalf("%d stripes still cached, or the LRU ring is not empty", len(a.cache))
	}
	if a.ackWaiters.Len() != 0 || a.inflightFlush != 0 {
		t.Fatalf("%d writes await their ack, %d bytes of flush in flight", a.ackWaiters.Len(), a.inflightFlush)
	}
	got := a.made
	got.entry, got.member, got.write, got.read = len(a.entryFree), len(a.memberFree), len(a.writeFree), len(a.readFree)
	if got != a.made {
		t.Fatalf("records made %+v, on the free lists %+v", a.made, got)
	}
}

func TestRecordDiscipline(t *testing.T) {
	_, a, _ := newArray(t, testCfg())
	e := a.getEntry()
	a.putEntry(e)
	mustPanic(t, "stripe entry put twice", func() { a.putEntry(e) })
	mustPanic(t, "old copy read in after put", func() { e.onOld(blockdev.ReadResult{}) })

	m := a.getMember()
	a.putMember(m)
	mustPanic(t, "member write put twice", func() { a.putMember(m) })
	mustPanic(t, "member write completed after put", func() { m.onDone(blockdev.WriteResult{}) })

	w := a.getWrite()
	a.putWrite(w)
	mustPanic(t, "write record put twice", func() { a.putWrite(w) })
	mustPanic(t, "write record fired after put", func() { w.Fire(0, 0) })

	rd := a.getRead()
	rd.parts = append(rd.parts, &readPart{rd: rd})
	a.putRead(rd)
	mustPanic(t, "read record put twice", func() { a.putRead(rd) })
	mustPanic(t, "read record fired after put", func() { rd.Fire(0, 0) })
	mustPanic(t, "read part completed after put", func() { rd.parts[0].complete(blockdev.ReadResult{}) })

	rd = a.getRead()
	rd.f.Arm(rd.onAll)
	rd.f.Add(1)
	rd.f.Seal()
	p := &readPart{rd: rd}
	p.complete(blockdev.ReadResult{}) // completes the request and puts rd back
	mustPanic(t, "read part completed twice", func() { p.complete(blockdev.ReadResult{}) })
}

// TestRecordsComeHome, per acknowledgement mode: sequential and random
// writes (full-stripe flushes, evictions under cache pressure, timer
// flushes, read-modify-writes), acks stalled behind the flush budget, reads
// from the cache, from the members and from both, requests for nobody.
func TestRecordsComeHome(t *testing.T) {
	for _, ackFromCache := range []bool{true, false} {
		name := "write-through"
		if ackFromCache {
			name = "ack from cache"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.AckFromCache = ackFromCache
			cfg.StripeCacheBytes = 12 * 4096 * 4 // four stripes: evictions under pressure
			eng, a, _ := newArray(t, cfg)
			a.maxInflight = 16 * 4096 // one stripe with its parity: acks wait for the members
			rng := sim.NewRNG(9)
			writes, reads, stalled := 0, 0, 0
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
				stalled = max(stalled, a.ackWaiters.Len())
			}
			const span = 12 * 40
			for i := 0; i < 600; i++ {
				if i%3 == 0 {
					a.Write(int64(i%40)*12, 12, nil, wdone) // a full stripe
				}
				lba := rng.Int63n(span - 8)
				a.Write(lba, 1+rng.Intn(8), nil, wdone)
				a.Read(lba, 6, rdone) // dirty pages, flushed pages, or both
				if i%50 == 7 {
					a.Write(lba, 2, nil, nil)
					a.Read(lba, 2, nil)
				}
				if i%8 == 0 {
					eng.Run()
				}
			}
			eng.Run()
			if writes != 800 || reads != 600 {
				t.Fatalf("%d of 800 writes and %d of 600 reads completed", writes, reads)
			}
			if ackFromCache && stalled == 0 {
				t.Fatal("no ack ever waited for the flush budget: ackWaiters was not exercised")
			}
			if a.rmwReads == 0 || a.FlushErrors() != 0 {
				t.Fatalf("rmw reads %d, flush errors %d", a.rmwReads, a.FlushErrors())
			}
			assertRecordsHome(t, a)
		})
	}
}

// syncMember is a member device that answers inside the submitting call.
type syncMember struct{}

func (syncMember) BlockSize() int  { return 4096 }
func (syncMember) Blocks() int64   { return 1 << 16 }
func (syncMember) Trim(int64, int) {}
func (syncMember) Write(_ int64, _ int, _ []byte, done func(blockdev.WriteResult)) {
	done(blockdev.WriteResult{})
}
func (syncMember) Read(_ int64, _ int, done func(blockdev.ReadResult)) {
	done(blockdev.ReadResult{})
}

// TestPartsCompleteInsideTheIssuingLoop: over members that answer inside the
// submitting call every old-copy read, every member write and every run of
// a Read is done before its siblings are issued; and a write-through request
// whose stripes have all left the cache, like a Read served from the cache
// alone, issues no part at all. Each request still completes exactly once.
func TestPartsCompleteInsideTheIssuingLoop(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.AckFromCache = false
	cfg.FlushInterval = 0
	a, err := New(eng, []blockdev.Device{syncMember{}, syncMember{}, syncMember{}, syncMember{}}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	acks, reads := 0, 0
	wdone := func(r blockdev.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		acks++
	}
	rdone := func(blockdev.ReadResult) { reads++ }
	a.Write(0, 12, nil, wdone)  // a full stripe: flushed before the write-through loop, which finds nothing
	a.Write(12, 30, nil, wdone) // two full stripes and a partial one: the loop's read-modify-write
	a.Write(50, 3, nil, wdone)  // pages scattered over two chunks of one stripe
	a.Read(40, 20, rdone)       // several members, several runs
	eng.Run()
	if acks != 3 || reads != 1 {
		t.Fatalf("%d of 3 writes acknowledged, %d of 1 reads answered", acks, reads)
	}
	assertRecordsHome(t, a)

	// A read the cache serves alone: its pages are dirty, no member is asked.
	a.cfg.AckFromCache = true
	a.Write(100, 2, nil, wdone)
	a.Read(100, 2, rdone)
	eng.Run()
	if acks != 4 || reads != 2 || len(a.cache) != 1 {
		t.Fatalf("acks %d, reads %d, cached stripes %d: want 4, 2 and the dirty stripe still cached", acks, reads, len(a.cache))
	}
	a.timerFlush()
	assertRecordsHome(t, a)
}
