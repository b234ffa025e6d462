package zapraid

import (
	"runtime"
	"runtime/debug"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

// newArrayPerf builds an array over StoreData=false devices, matching the
// configuration of the performance experiments.
func newArrayPerf(t *testing.T) (*sim.Engine, *Array, []*zns.Device) {
	t.Helper()
	eng := sim.NewEngine()
	var queues []*nvme.Queue
	var devs []*zns.Device
	for i := 0; i < 4; i++ {
		cfg := zns.TestConfig()
		cfg.Seed = uint64(i) + 40
		cfg.StoreData = false
		d, err := zns.New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		queues = append(queues, nvme.New(d, nvme.Config{
			ReorderWindow: 5 * sim.Microsecond, Seed: uint64(i) + 400,
		}))
	}
	a, err := New(queues, DefaultConfig(dc(devs)))
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, devs
}

// TestStripeBufPoolSemantics: getSB hands back an emptied record, the pool
// a zeroed accumulator, and putSB drops chunk references so pooled stripe
// buffers do not pin payloads.
func TestStripeBufPoolSemantics(t *testing.T) {
	_, a, _ := newArray(t)
	sb := a.getSB()
	sb.lbns = append(sb.lbns, 7)
	sb.data = append(sb.data, make([]byte, a.blockSize))
	sb.acc = a.pool.AllocZero(a.blockSize)
	sb.acc[0] = 0xCD
	a.putSB(sb)
	sb2 := a.getSB()
	if len(sb2.lbns) != 0 || len(sb2.data) != 0 || sb2.acc != nil {
		t.Fatalf("recycled stripeBuf not emptied: lbns=%d data=%d acc=%v",
			len(sb2.lbns), len(sb2.data), sb2.acc != nil)
	}
	acc := a.pool.AllocZero(a.blockSize)
	for i, v := range acc {
		if v != 0 {
			t.Fatalf("AllocZero reused dirty accumulator: byte %d = %#x", i, v)
		}
	}
	a.pool.Free(acc)
	a.pool.Free(nil) // nil-safe
	a.putSB(sb2)
}

// TestStripeBufPoolCycleAllocFree: once warm, the per-stripe get/put
// cycle costs zero allocations.
func TestStripeBufPoolCycleAllocFree(t *testing.T) {
	_, a, _ := newArray(t)
	cycle := func() {
		sb := a.getSB()
		sb.acc = a.pool.AllocZero(a.blockSize)
		a.putSB(sb)
	}
	cycle()
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("stripeBuf cycle allocates %.1f per run, want 0", allocs)
	}
}

// TestSteadyStateWriteNoBufferAllocs: in performance mode, steady-state
// full-stripe writes must not take payload buffers from the heap — total
// bytes allocated per stripe stays under one block.
func TestSteadyStateWriteNoBufferAllocs(t *testing.T) {
	eng, a, devs := newArrayPerf(t)
	k := len(devs) - 1
	span := a.Blocks() / 2
	for lba := int64(0); lba+int64(k) <= span; lba += int64(k) {
		wsync(eng, a, lba, k, nil)
	}
	done := func(r blockdev.WriteResult) {}
	lba := int64(0)
	step := func() {
		a.Write(lba, k, nil, done)
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

	t.Logf("steady-state zapraid stripe write: %.1f allocs, %.0f bytes", allocs, bytesPer)
	if bytesPer >= float64(a.blockSize) {
		t.Fatalf("stripe write allocates %.0f bytes, want < one block (%d)", bytesPer, a.blockSize)
	}
}
