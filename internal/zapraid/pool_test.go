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

// TestSteadyStateWriteNoBufferAllocs: in performance mode, steady-state
// full-stripe writes must not take payload buffers from the heap — total
// bytes allocated per stripe stays under one block.
func TestSteadyStateWriteNoBufferAllocs(t *testing.T) {
	eng, a, devs := newArrayPerf(t)
	k := len(devs) - 1
	span := a.Blocks() / 2
	for lba := int64(0); lba+int64(k) <= span; lba += int64(k) {
		mustWrite(t, eng, a, lba, k, nil)
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
