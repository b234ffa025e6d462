package core

// Gates on the read path's recycled record (read.go, pool.go): a Read
// allocates nothing once warm, its completion never runs inside the call,
// and the record survives the two things that are easy to get wrong with
// it — a callback that issues the next Read from inside done, and a member
// dying under a run in flight.

import (
	"bytes"
	"errors"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/zns"
)

// TestReadCompletesAfterReturn: the three Reads nothing asynchronous stands
// behind are answered by an event, not from inside the call. The last row
// fails at the parent of the read record, where a read with every block on
// a failed member and no surviving shard called done before it returned.
func TestReadCompletesAfterReturn(t *testing.T) {
	tests := []struct {
		name    string
		prepare func(eng *sim.Engine, c *Core) (lba int64)
		wantErr error
	}{
		{name: "out of range", prepare: func(_ *sim.Engine, c *Core) int64 { return c.Blocks() }, wantErr: blockdev.ErrOutOfRange},
		{name: "unmapped", prepare: func(*sim.Engine, *Core) int64 { return 7 }},
		{name: "unrecoverable", prepare: func(eng *sim.Engine, c *Core) int64 {
			mustWrite(t, eng, c, 0, 3, blockdev.Pattern(1, 3*4096))
			for dev := range c.devs {
				c.SetDeviceFailed(dev, true)
			}
			return 0
		}, wantErr: ErrUnrecoverable},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eng, c, _ := newTestCore(t, nil)
			lba := tc.prepare(eng, c)
			issued := eng.Now()
			var got *blockdev.ReadResult
			c.Read(lba, 1, func(r blockdev.ReadResult) { got = &r })
			if got != nil {
				t.Fatal("the completion ran inside Read")
			}
			eng.Run()
			if got == nil {
				t.Fatal("the read never completed")
			}
			if !errors.Is(got.Err, tc.wantErr) { // a nil error matches only a nil wantErr
				t.Fatalf("err = %v, want %v", got.Err, tc.wantErr)
			}
			if got.Latency != sim.Microsecond || eng.Now() != issued+sim.Microsecond {
				t.Fatalf("completed %d ns after the call reporting %d ns, want 1 µs for both", eng.Now()-issued, got.Latency)
			}
			assertNoStrayRecords(t, c)
		})
	}
}

// TestReadAllocFree gates the read flow once warm: whatever the length of
// the request and however its blocks are scattered, a Read in performance
// mode allocates nothing, traced or not, and one that returns bytes
// allocates exactly the buffer the caller keeps.
func TestReadAllocFree(t *testing.T) {
	const span = 256 // blocks in each of the two regions read
	tests := []struct {
		name      string
		storeData bool
		traced    bool
		want      float64
	}{
		{name: "performance mode", want: 0},
		{name: "performance mode, traced", traced: true, want: 0},
		{name: "stored data", storeData: true, want: 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eng, c, _ := newTestCore(t, func(_ *Config, dcfgs *[]zns.Config) {
				for i := range *dcfgs {
					(*dcfgs)[i].StoreData = tc.storeData
				}
			})
			if tc.traced {
				tr := obs.New(obs.Config{Capacity: 1 << 10}) // a ring the warm-up fills
				c.SetTracer(tr)
				for i, ds := range c.devs {
					ds.q.SetTracer(tr, i)
				}
			}
			payload := func(n int) []byte {
				if !tc.storeData {
					return nil
				}
				return blockdev.Pattern(9, n*c.blockSize)
			}
			// Two regions written in 64-block stripes; then, once enough has
			// been appended behind them that their slots have left every ZRWA
			// window, every third block of the second is rewritten alone and
			// lands elsewhere.
			for lba := int64(0); lba < 4*span; lba += 64 {
				mustWrite(t, eng, c, lba, 64, payload(64))
			}
			inPlace := c.InPlaceHits()
			for lba := int64(span); lba < 2*span; lba += 3 {
				mustWrite(t, eng, c, lba, 1, payload(1))
			}
			if c.InPlaceHits() != inPlace {
				t.Fatal("the 4 KiB overwrites were meant to fragment the region, but some went in place")
			}
			var failed error
			done := func(r blockdev.ReadResult) {
				if r.Err != nil {
					failed = r.Err
				}
			}
			var slots []int // run slots the one record has grown after each region
			for _, region := range []struct {
				name string
				base int64
			}{{"striped", 0}, {"fragmented", span}} {
				for _, n := range []int{1, 8, 64} {
					off := int64(0)
					step := func() {
						c.Read(region.base+off, n, done)
						eng.Run()
						off = (off + int64(n)) % span
					}
					for i := 0; i < span/n; i++ { // every shape the measured reads will have
						step()
					}
					if allocs := testing.AllocsPerRun(100, step); allocs != tc.want {
						t.Errorf("%d-block read of the %s region allocates %.0f per Read, want %.0f", n, region.name, allocs, tc.want)
					}
				}
				slots = append(slots, len(c.recs.read[0].runs))
			}
			if slots[1] <= slots[0] {
				t.Errorf("reads of the fragmented region took at most %d runs, of the striped one %d: the overwrites scattered nothing", slots[1], slots[0])
			}
			if failed != nil {
				t.Fatal(failed)
			}
			assertNoStrayRecords(t, c)
		})
	}
}

// TestReentrantReadUnderMemberDeath: each read of a chain is issued from
// inside the previous one's callback, so it takes the record that callback
// was answered from, and a member dies under one of their runs in flight,
// which sends that run's blocks through reconstruction one by one. Every
// read returns the bytes written, and the one record is home at the end.
func TestReentrantReadUnderMemberDeath(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	const n, reads = 24, 6 // blocks per read: a run or two on every member
	want := blockdev.Pattern(5, reads*n*c.blockSize)
	if r := blockdev.WriteSync(eng, c, 0, reads*n, want); r.Err != nil {
		t.Fatal(r.Err)
	}
	const victim = 1
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.DeviceDeath, Dev: victim, AfterOps: 3},
	}}, 29)
	completed, diedUnder := 0, -1
	var next func(i int)
	next = func(i int) {
		healthy := !c.failed[victim]
		c.Read(int64(i*n), n, func(r blockdev.ReadResult) {
			if r.Err != nil || !bytes.Equal(r.Data, want[i*n*c.blockSize:(i+1)*n*c.blockSize]) {
				t.Errorf("read %d: err=%v, or bytes other than those written", i, r.Err)
			}
			if healthy && c.failed[victim] {
				diedUnder = i
			}
			if completed++; i+1 < reads {
				next(i + 1)
			}
		})
	}
	next(0)
	eng.Run()
	if completed != reads {
		t.Fatalf("%d of %d reads completed", completed, reads)
	}
	if diedUnder < 0 || c.Reconstructions() == 0 {
		t.Fatalf("no read had member %d die under it (reconstructions: %d): the fault missed the runs in flight", victim, c.Reconstructions())
	}
	if diedUnder == reads-1 {
		t.Fatal("the member died under the last read: nothing was issued from inside a degraded completion")
	}
	if len(c.recs.read) != 1 {
		t.Fatalf("the chain used %d read records, want the one each callback hands to the next Read", len(c.recs.read))
	}
	assertNoStrayRecords(t, c)
}
