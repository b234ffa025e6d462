package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/zns"
)

// TestPoolBufSemantics checks the buffer pool contracts the write path
// relies on: AllocZero returns zeroed memory after a dirty Free, and
// copyBuf snapshots its source (and counts the copy).
func TestPoolBufSemantics(t *testing.T) {
	_, c, _ := newTestCore(t, nil)
	b := c.pool.AllocZero(c.blockSize)
	if len(b) != c.blockSize {
		t.Fatalf("AllocZero len = %d, want %d", len(b), c.blockSize)
	}
	for i := range b {
		b[i] = 0xAB
	}
	c.pool.Free(b)
	b2 := c.pool.AllocZero(c.blockSize)
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("AllocZero reused dirty buffer: byte %d = %#x", i, v)
		}
	}
	src := blockdev.Pattern(7, c.blockSize)
	copies := c.pool.Stats().Copies
	cp := c.copyBuf(src)
	src[0] ^= 0xFF
	if cp[0] == src[0] {
		t.Fatal("copyBuf aliases its source")
	}
	if got := c.pool.Stats().Copies; got != copies+1 {
		t.Fatalf("copyBuf recorded %d copies, want %d", got, copies+1)
	}
	c.pool.Free(nil) // nil-safe
	c.pool.Free(cp)
	c.pool.Free(b2)
	if live := c.pool.RawLive(); live != 0 {
		t.Fatalf("raw slabs outstanding after balanced put cycle: %d", live)
	}
}

// TestPoolVecDropsReferences: putVec must nil out elements so pooled
// vectors do not pin block buffers.
func TestPoolVecDropsReferences(t *testing.T) {
	_, c, _ := newTestCore(t, nil)
	v := c.getVec(3)
	for i := range v {
		v[i] = c.pool.AllocZero(c.blockSize)
	}
	c.putVec(v)
	v2 := c.getVec(3)
	for i, e := range v2 {
		if e != nil {
			t.Fatalf("getVec element %d not nil after recycle", i)
		}
	}
	c.putVec(v2)
}

// TestShortSealFreesAccumulators: a stripe that GC seals short, with no
// parity generation in flight, gives its parity accumulators back to the
// pool when its record retires.
func TestShortSealFreesAccumulators(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	live, raw := c.pool.Live(), c.pool.RawLive()
	if r := blockdev.WriteSync(eng, c, 0, 1, blockdev.Pattern(3, c.blockSize)); r.Err != nil {
		t.Fatal(r.Err)
	}
	var st *openStripe
	for _, o := range c.open {
		if o != nil {
			st = o
		}
	}
	if st == nil || st.accs == nil || st.gen >= genBusy {
		t.Fatal("want one open stripe, with accumulators and no parity generation in flight")
	}
	c.Trim(0, 1) // nothing left to migrate: the dissolution only seals and releases
	done := false
	c.dissolveStripe(st.sn, func() { done = true })
	eng.Run()
	if !done || st.live {
		t.Fatalf("dissolution done %v, stripe record still out %v", done, st.live)
	}
	if l, r := c.pool.Live(), c.pool.RawLive(); l != live || r != raw {
		t.Fatalf("pool holds %d buffers and %d raw slabs after the drain, want %d and %d", l, r, live, raw)
	}
}

// TestPoolCycleAllocFree is the pool-discipline gate: once warm, a full
// get/put cycle across every pool costs zero allocations.
func TestPoolCycleAllocFree(t *testing.T) {
	_, c, _ := newTestCore(t, nil)
	cycle := func() {
		b := c.pool.AllocZero(c.blockSize)
		cp := c.copyBuf(b)
		c.pool.Free(b)
		c.pool.Free(cp)
		o := c.pool.Alloc(oobLen)
		c.pool.Free(o)
		bt := c.pool.AllocZero(4 * c.blockSize)
		c.pool.Free(bt)
		v := c.getVec(4)
		c.putVec(v)
		ab := c.getBatch()
		ab.ops = append(ab.ops, schedOp{})
		ab.oob = append(ab.oob, nil)
		c.putBatch(ab)
		c.putWrite(c.getWrite())
		c.putChunk(c.getChunk())
		se := c.getSE()
		st := c.getStripe()
		st.se = se
		c.putStripe(st) // drops getSE's hold: the entry goes back too
		c.putDissolve(c.getDissolve(0, func() {}))
		c.putMigrationRead(c.getMigrationRead(nil, 0, pa{}, nil))
	}
	cycle() // warm every pool
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("pool cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestSteadyStateStripeWriteAllocs gates the steady-state full-stripe
// write path in performance mode (StoreData=false, the configuration of
// every figure experiment). The pooled buffers must eliminate all payload
// allocation: total bytes allocated per stripe write stays under one
// block, which is impossible if even a single chunk, parity, OOB, or
// batch buffer were still taken from the heap. The object count bound
// locks in the recycled records: a stripe write runs on write, chunk,
// stripe, SMT and batch records from the free lists, so what is left is
// map growth and the state of the zone opened every few dozen stripes —
// a fraction of an object per stripe; one closure per chunk would be
// three.
func TestSteadyStateStripeWriteAllocs(t *testing.T) {
	eng, c, _ := newTestCore(t, func(cfg *Config, dcfgs *[]zns.Config) {
		for i := range *dcfgs {
			(*dcfgs)[i].StoreData = false
		}
	})
	k := c.nData
	span := c.Blocks() / 2
	for lba := int64(0); lba+int64(k) <= span; lba += int64(k) {
		mustWrite(t, eng, c, lba, k, nil)
	}
	done := func(r blockdev.WriteResult) {}
	lba := int64(0)
	step := func() {
		c.Write(lba, k, nil, done)
		eng.Run()
		lba += int64(k)
		if lba+int64(k) > span {
			lba = 0
		}
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, step)

	gcOff := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcOff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs

	t.Logf("steady-state stripe write: %.1f allocs, %.0f bytes", allocs, bytesPer)
	if bytesPer >= float64(c.blockSize) {
		t.Fatalf("stripe write allocates %.0f bytes, want < one block (%d): a payload buffer escaped the pools", bytesPer, c.blockSize)
	}
	if allocs > 2 {
		t.Fatalf("stripe write allocates %.1f objects, want <= 2 (a record or callback is heap-allocated per chunk again)", allocs)
	}
}
