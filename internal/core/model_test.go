package core

// Model-based randomized testing: drive the engine with random writes,
// overwrites, trims, reads, and crash-recovery cycles, checking every
// result against an in-memory reference model. This is the strongest
// correctness net over the interacting mechanisms (in-place updates,
// stripe formation, GC dissolution, OOB recovery).

import (
	"bytes"
	"fmt"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

func modelPattern(lba int64, version int, bs int) []byte {
	b := make([]byte, bs)
	for i := range b {
		b[i] = byte(lba) ^ byte(version*37) ^ byte(i*11)
	}
	return b
}

func TestModelRandomizedWithRecovery(t *testing.T) {
	eng := sim.NewEngine()
	dcfgs := make([]zns.Config, 4)
	var devs []*zns.Device
	var queues []*nvme.Queue
	for i := range dcfgs {
		dcfgs[i] = devConfig()
		dcfgs[i].NumZones = 48
		dcfgs[i].Seed = uint64(i) + 5
		d, err := zns.New(eng, dcfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		queues = append(queues, nvme.New(d, nvme.Config{
			ReorderWindow: 5 * sim.Microsecond, Seed: uint64(i) + 55,
		}))
	}
	ccfg := DefaultConfig(48)
	c, err := New(queues, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := sim.NewRNG(2024)
	span := c.Blocks() / 4
	version := make(map[int64]int) // reference model: lba -> version written
	bs := c.blockSize

	writeN := func(lba int64, n int) {
		data := make([]byte, n*bs)
		for i := 0; i < n; i++ {
			v := version[lba+int64(i)] + 1
			version[lba+int64(i)] = v
			copy(data[i*bs:], modelPattern(lba+int64(i), v, bs))
		}
		var werr error
		ok := false
		c.Write(lba, n, data, func(r blockdev.WriteResult) { werr = r.Err; ok = true })
		eng.Run()
		if !ok || werr != nil {
			t.Fatalf("write lba=%d n=%d: ok=%v err=%v", lba, n, ok, werr)
		}
	}
	checkN := func(lba int64, n int) {
		var got []byte
		var rerr error
		c.Read(lba, n, func(r blockdev.ReadResult) { got, rerr = r.Data, r.Err })
		eng.Run()
		if rerr != nil {
			t.Fatalf("read lba=%d n=%d: %v", lba, n, rerr)
		}
		for i := 0; i < n; i++ {
			blk := lba + int64(i)
			want := make([]byte, bs)
			if v, ok := version[blk]; ok && v > 0 {
				want = modelPattern(blk, v, bs)
			}
			if !bytes.Equal(got[i*bs:(i+1)*bs], want) {
				t.Fatalf("model mismatch at lba %d (version %d)", blk, version[blk])
			}
		}
	}

	const steps = 4000
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // write 1-4 blocks, biased hot
			n := 1 + rng.Intn(4)
			var lba int64
			if rng.Intn(2) == 0 {
				lba = rng.Int63n(64) // hot region: exercises in-place
			} else {
				lba = rng.Int63n(span - int64(n))
			}
			writeN(lba, n)
		case 5, 6, 7: // read-verify a random written region
			n := 1 + rng.Intn(4)
			lba := rng.Int63n(span - int64(n))
			checkN(lba, n)
		case 8: // trim
			n := 1 + rng.Intn(4)
			lba := rng.Int63n(span - int64(n))
			c.Trim(lba, n)
			for j := 0; j < n; j++ {
				delete(version, lba+int64(j))
			}
		case 9: // occasionally crash and recover
			if i%1000 != 999 {
				continue
			}
			eng.Run()
			var nq []*nvme.Queue
			for k, d := range devs {
				nq = append(nq, nvme.New(d, nvme.Config{
					ReorderWindow: 5 * sim.Microsecond, Seed: uint64(k*7 + i),
				}))
			}
			var rc *Core
			var rerr error
			Recover(nq, ccfg, nil, func(n *Core, err error) { rc, rerr = n, err })
			eng.Run()
			if rerr != nil {
				t.Fatalf("recovery at step %d: %v", i, rerr)
			}
			assertTables(t, rc)
			c = rc
			queues = nq
		}
	}
	// Final full sweep over the hot region plus samples.
	checkN(0, 64)
	for i := 0; i < 50; i++ {
		checkN(rng.Int63n(span-4), 4)
	}
	if c.GCEvents() == 0 {
		t.Log("note: GC did not trigger in this run")
	}
	assertNoStrayRecords(t, c)
}

func TestModelDegradedSweep(t *testing.T) {
	// Write a model data set, then verify every block under each
	// single-device failure.
	eng, c, _ := newTestCore(t, nil)
	rng := sim.NewRNG(31337)
	version := make(map[int64]int)
	bs := c.blockSize
	span := int64(256)
	for i := 0; i < 1200; i++ {
		lba := rng.Int63n(span)
		v := version[lba] + 1
		version[lba] = v
		ok := false
		c.Write(lba, 1, modelPattern(lba, v, bs), func(r blockdev.WriteResult) { ok = r.Err == nil })
		eng.Run()
		if !ok {
			t.Fatalf("write %d failed", lba)
		}
	}
	for dev := 0; dev < 4; dev++ {
		c.SetDeviceFailed(dev, true)
		for lba := int64(0); lba < span; lba += 3 {
			v, ok := version[lba]
			if !ok {
				continue
			}
			var got []byte
			var rerr error
			c.Read(lba, 1, func(r blockdev.ReadResult) { got, rerr = r.Data, r.Err })
			eng.Run()
			if rerr != nil {
				t.Fatalf("dev %d failed, lba %d: %v", dev, lba, rerr)
			}
			if !bytes.Equal(got, modelPattern(lba, v, bs)) {
				t.Fatalf("dev %d failed, lba %d: wrong content (v%d)", dev, lba, v)
			}
		}
		assertTables(t, c)
		c.SetDeviceFailed(dev, false)
	}
	assertNoStrayRecords(t, c)
}

func TestModelConcurrentDepth(t *testing.T) {
	// Concurrent in-flight writes to DISTINCT blocks with verification
	// after drain: exercises the scheduler under reordering with payloads.
	eng, c, _ := newTestCore(t, nil)
	bs := c.blockSize
	const n = 600
	for round := 0; round < 3; round++ {
		outstanding := 0
		for i := 0; i < n; i++ {
			lba := int64(i)
			outstanding++
			c.Write(lba, 1, modelPattern(lba, round+1, bs), func(r blockdev.WriteResult) {
				if r.Err != nil {
					t.Errorf("write %d: %v", lba, r.Err)
				}
				outstanding--
			})
		}
		eng.Run()
		if outstanding != 0 {
			t.Fatalf("round %d: %d writes hung", round, outstanding)
		}
		assertTables(t, c)
	}
	for i := 0; i < n; i += 17 {
		var got []byte
		c.Read(int64(i), 1, func(r blockdev.ReadResult) { got = r.Data })
		eng.Run()
		if !bytes.Equal(got, modelPattern(int64(i), 3, bs)) {
			t.Fatalf("lba %d: stale content after concurrent rounds", i)
		}
	}
	assertNoStrayRecords(t, c)
	_ = fmt.Sprint
}

func TestModelChaosWithFaults(t *testing.T) {
	// The randomized model checker under an adversarial fault schedule:
	// transient errors on every member, a latency spike on one, and a
	// mid-run member death followed by a hot-swap — every read result is
	// still checked byte-for-byte against the reference model.
	eng, c, _ := newTestCore(t, nil)
	const deadDev = 3
	plan, err := fault.Compile(&fault.Spec{Rules: []fault.Rule{
		fault.TransientErrors(-1, fault.AnyOp, 0.01),
		{Kind: fault.Latency, Dev: 1, Op: fault.Read, Delay: 30 * sim.Microsecond},
		{Kind: fault.DeviceDeath, Dev: deadDev, AfterOps: 2500},
	}}, 4242, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, ds := range c.devs {
		ds.q.SetInjector(plan.Injector(i))
	}

	rng := sim.NewRNG(777)
	version := make(map[int64]int)
	bs := c.blockSize
	span := int64(300)
	writeN := func(lba int64, n int) {
		data := make([]byte, n*bs)
		for i := 0; i < n; i++ {
			v := version[lba+int64(i)] + 1
			version[lba+int64(i)] = v
			copy(data[i*bs:], modelPattern(lba+int64(i), v, bs))
		}
		var werr error
		ok := false
		c.Write(lba, n, data, func(r blockdev.WriteResult) { werr = r.Err; ok = true })
		eng.Run()
		if !ok || werr != nil {
			t.Fatalf("chaos write lba=%d n=%d: ok=%v err=%v", lba, n, ok, werr)
		}
	}
	checkN := func(lba int64, n int) {
		var got []byte
		var rerr error
		c.Read(lba, n, func(r blockdev.ReadResult) { got, rerr = r.Data, r.Err })
		eng.Run()
		if rerr != nil {
			t.Fatalf("chaos read lba=%d n=%d: %v", lba, n, rerr)
		}
		for i := 0; i < n; i++ {
			blk := lba + int64(i)
			want := make([]byte, bs)
			if v, ok := version[blk]; ok && v > 0 {
				want = modelPattern(blk, v, bs)
			}
			if !bytes.Equal(got[i*bs:(i+1)*bs], want) {
				t.Fatalf("chaos model mismatch at lba %d (version %d)", blk, version[blk])
			}
		}
	}

	const steps = 2500
	replaced := false
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			n := 1 + rng.Intn(4)
			var lba int64
			if rng.Intn(2) == 0 {
				lba = rng.Int63n(48)
			} else {
				lba = rng.Int63n(span - int64(n))
			}
			writeN(lba, n)
		case 5, 6, 7, 8:
			n := 1 + rng.Intn(4)
			checkN(rng.Int63n(span-int64(n)), n)
		case 9:
			n := 1 + rng.Intn(4)
			lba := rng.Int63n(span - int64(n))
			c.Trim(lba, n)
			for j := 0; j < n; j++ {
				delete(version, lba+int64(j))
			}
		}
		// Once the scheduled death lands, swap in a spare mid-run (the
		// spare sits outside the fault plan).
		if !replaced && c.Health()[deadDev] == MemberDegraded {
			dc := devConfig()
			dc.Seed = 31000
			nd, err := zns.New(eng, dc)
			if err != nil {
				t.Fatal(err)
			}
			nq := nvme.New(nd, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: 31001})
			var rerr error
			okR := false
			c.ReplaceDevicePaced(deadDev, nq, RebuildControl{}, func(err error) { rerr = err; okR = true })
			eng.Run()
			if !okR || rerr != nil {
				t.Fatalf("chaos replace at step %d: ok=%v err=%v", i, okR, rerr)
			}
			assertTables(t, c)
			replaced = true
		}
	}
	if !replaced {
		t.Fatal("fault schedule never killed the member — chaos run degenerate")
	}
	if plan.Injector(0).Injected() == 0 {
		t.Fatal("no transient faults injected — chaos run degenerate")
	}
	// Full verification sweep against the model.
	for lba := int64(0); lba < span; lba++ {
		if v, ok := version[lba]; ok && v > 0 {
			checkN(lba, 1)
		}
	}
	assertNoStrayRecords(t, c)
}
