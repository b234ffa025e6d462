package volume

import (
	"bytes"
	"errors"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/storerr"
)

// fakeDev is a deterministic single-server device: one op in service at a
// time, service time = fakeBase + cost·fakePerBlock. It makes queueing
// behind an aggressor visible, which is exactly what the QoS layer must
// bound. The device itself is the pooled event record, so steady-state
// operation allocates nothing.
type fakeDev struct {
	eng    *sim.Engine
	blocks int64

	fifo []fakeOp
	head int
	busy bool

	served int
	order  []int64 // lbas in service order, for FIFO checks
}

type fakeOp struct {
	write   bool
	lba     int64
	nblocks int
	wdone   func(blockdev.WriteResult)
	rdone   func(blockdev.ReadResult)
}

const (
	fakeBase     = 10 * sim.Microsecond
	fakePerBlock = 2 * sim.Microsecond
)

func newFakeDev(eng *sim.Engine, blocks int64) *fakeDev {
	return &fakeDev{eng: eng, blocks: blocks}
}

func (d *fakeDev) BlockSize() int { return 4096 }
func (d *fakeDev) Blocks() int64  { return d.blocks }

func (d *fakeDev) push(op fakeOp) {
	if d.head == len(d.fifo) {
		d.fifo = d.fifo[:0]
		d.head = 0
	}
	d.fifo = append(d.fifo, op)
	if !d.busy {
		d.start()
	}
}

func (d *fakeDev) start() {
	d.busy = true
	op := &d.fifo[d.head]
	d.eng.AfterEvent(fakeBase+sim.Time(op.nblocks)*fakePerBlock, d, 0, 0)
}

// Fire completes the op in service and starts the next.
func (d *fakeDev) Fire(_, _ sim.Time) {
	op := d.fifo[d.head]
	d.fifo[d.head] = fakeOp{}
	d.head++
	d.busy = false
	d.served++
	if d.order != nil {
		d.order = append(d.order, op.lba)
	}
	if op.write {
		op.wdone(blockdev.WriteResult{})
	} else {
		op.rdone(blockdev.ReadResult{})
	}
	if d.head < len(d.fifo) && !d.busy {
		d.start()
	}
}

func (d *fakeDev) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	d.push(fakeOp{write: true, lba: lba, nblocks: nblocks, wdone: done})
}

func (d *fakeDev) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	d.push(fakeOp{lba: lba, nblocks: nblocks, rdone: done})
}

func (d *fakeDev) Trim(lba int64, nblocks int) {}

func newManager(t *testing.T, blocks int64, cfg Config) (*sim.Engine, *fakeDev, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	dev := newFakeDev(eng, blocks)
	return eng, dev, New(eng, dev, cfg)
}

func TestOpenAllocatesDisjointRanges(t *testing.T) {
	eng, dev, m := newManager(t, 1000, Config{})
	a, err := m.Open("a", Options{Blocks: 400})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open("b", Options{Blocks: 600})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("c", Options{Blocks: 1}); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if _, err := m.Open("a", Options{Blocks: 1}); err == nil {
		t.Fatal("duplicate name succeeded")
	}
	if _, err := m.Open("z", Options{Blocks: 0}); err == nil {
		t.Fatal("zero-capacity open succeeded")
	}
	if m.vols["a"] != a || m.vols["b"] != b || a.id == b.id || len(m.vols) != 2 {
		t.Fatal("lookup mismatch")
	}

	// Both tenants write "their" LBA 0; the device must see the two
	// distinct array-space addresses.
	dev.order = []int64{}
	a.Write(0, 1, nil, nil)
	b.Write(0, 1, nil, nil)
	eng.Run()
	if len(dev.order) != 2 || dev.order[0] != 0 || dev.order[1] != 400 {
		t.Fatalf("array-space lbas = %v, want [0 400]", dev.order)
	}
}

// TestOpenVolumeRoundTrip: two tenants on a real BIZA array that stores
// data read back their own payloads at the same volume-relative LBA.
func TestOpenVolumeRoundTrip(t *testing.T) {
	opts := stack.Options{Seed: 11, ZNS: stack.BenchZNS(128)}
	opts.ZNS.StoreData = true
	p, err := stack.New(stack.KindBIZA, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p.Eng, p.Dev, Config{})
	va, err := m.Open("tenant-a", Options{Blocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	vb, err := m.Open("tenant-b", Options{Blocks: 256, QoS: QoS{Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Volume{va, vb} {
		pat := bytes.Repeat([]byte{byte(0xaa + v.id)}, 4*m.bs)
		if r := blockdev.WriteSync(p.Eng, v, 0, 4, pat); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for _, v := range []*Volume{va, vb} {
		pat := bytes.Repeat([]byte{byte(0xaa + v.id)}, 4*m.bs)
		if r := blockdev.ReadSync(p.Eng, v, 0, 4); r.Err != nil || !bytes.Equal(r.Data, pat) {
			t.Fatalf("volume %d read back: err=%v match=%v", v.id, r.Err, bytes.Equal(r.Data, pat))
		}
		if st := v.Stats(); st.Writes != 1 || st.Reads != 1 {
			t.Fatalf("volume %d stats %+v", v.id, st)
		}
	}
}

// TestVolumeErrorSentinels pins the errors.Is contract of Open, and that
// a refused Open takes no space from the frontier.
func TestVolumeErrorSentinels(t *testing.T) {
	_, _, m := newManager(t, 1000, Config{})
	if _, err := m.Open("x", Options{Blocks: 0}); !errors.Is(err, storerr.ErrBadArgument) {
		t.Fatalf("zero-capacity open: err = %v, want ErrBadArgument", err)
	}
	if _, err := m.Open("v", Options{Blocks: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("v", Options{Blocks: 100}); !errors.Is(err, storerr.ErrExists) {
		t.Fatalf("duplicate open: err = %v, want ErrExists", err)
	}
	if _, err := m.Open("big", Options{Blocks: 10000}); !errors.Is(err, storerr.ErrNoSpace) {
		t.Fatalf("oversize open: err = %v, want ErrNoSpace", err)
	}
	rest, err := m.Open("rest", Options{Blocks: 900})
	if err != nil {
		t.Fatalf("open of the exact remainder: %v", err)
	}
	if rest.base != 100 || rest.id != 1 {
		t.Fatalf("remainder at base %d id %d, want 100 and 1", rest.base, rest.id)
	}
	if _, err := m.Open("one", Options{Blocks: 1}); !errors.Is(err, storerr.ErrNoSpace) {
		t.Fatalf("open past the frontier: err = %v, want ErrNoSpace", err)
	}
}

func TestBoundsChecked(t *testing.T) {
	eng, _, m := newManager(t, 100, Config{})
	v, _ := m.Open("v", Options{Blocks: 10})
	var errs []error
	collectW := func(r blockdev.WriteResult) { errs = append(errs, r.Err) }
	collectR := func(r blockdev.ReadResult) { errs = append(errs, r.Err) }
	v.Write(9, 2, nil, collectW) // crosses the end
	v.Write(-1, 1, nil, collectW)
	v.Read(10, 1, collectR)
	v.Read(0, 0, collectR)
	eng.Run()
	if len(errs) != 4 {
		t.Fatalf("%d completions, want 4", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, blockdev.ErrOutOfRange) && !errors.Is(err, blockdev.ErrBadArgument) {
			t.Fatalf("completion %d: err = %v", i, err)
		}
	}
	// Out-of-range requests must not reach the array or the ready queues.
	if st := v.Stats(); st.QueueDepth != 0 || st.Ops != 0 {
		t.Fatalf("stats after rejected ops: %+v", st)
	}
}

func TestPerVolumeFIFO(t *testing.T) {
	eng, dev, m := newManager(t, 1000, Config{})
	v, _ := m.Open("v", Options{Blocks: 100})
	dev.order = []int64{}
	for i := 0; i < 20; i++ {
		v.Write(int64(i), 1, nil, nil)
	}
	eng.Run()
	for i, lba := range dev.order {
		if lba != int64(i) {
			t.Fatalf("service order %v: position %d holds lba %d", dev.order, i, lba)
		}
	}
}

// TestTokenBucketPacing: a rate-limited tenant's requests are admitted at
// exactly the provisioned rate once the burst is spent, in virtual time.
func TestTokenBucketPacing(t *testing.T) {
	eng, _, m := newManager(t, 1<<20, Config{})
	bs := int64(m.bs)
	// 4 MiB/s with a one-block burst: after the first block, each
	// subsequent block must wait bs/4MiB seconds = bs/4Mi * 1e9 ns.
	v, _ := m.Open("v", Options{Blocks: 1 << 10, QoS: QoS{
		RateBytesPerSec: 4 << 20,
		BurstBytes:      bs,
	}})
	const n = 8
	var last sim.Time
	var done int
	for i := 0; i < n; i++ {
		v.Write(int64(i), 1, nil, func(r blockdev.WriteResult) {
			if r.Err != nil {
				t.Errorf("write: %v", r.Err)
			}
			last = eng.Now()
			done++
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("%d completions, want %d", done, n)
	}
	gap := sim.Time(bs * int64(nsPerSec) / (4 << 20)) // ns per block at rate
	wantMin := sim.Time(n-1) * gap                    // first block rides the burst
	if last < wantMin || last > wantMin+gap {
		t.Fatalf("last completion at %dns, want within [%d, %d]", last, wantMin, wantMin+gap)
	}
	if st := v.Stats(); st.ThrottleStalls != n-1 {
		t.Fatalf("throttle stalls = %d, want %d", st.ThrottleStalls, n-1)
	}
}

// TestNoisyNeighborIsolation: an aggressor keeping a deep queue of large
// writes must not blow up a weighted interactive tenant's latency when
// QoS is on; with DisableQoS the victim queues behind the full backlog.
func TestNoisyNeighborIsolation(t *testing.T) {
	run := func(cfg Config) (victimLat sim.Time) {
		eng, _, m := newManager(t, 1<<20, cfg)
		agg, _ := m.Open("aggressor", Options{Blocks: 1 << 12, QoS: QoS{Weight: 1}})
		vic, _ := m.Open("victim", Options{Blocks: 1 << 12, QoS: QoS{Weight: 4}})

		// Aggressor: 64 outstanding 32-block writes, resubmitting forever.
		stop := false
		var pump func(r blockdev.WriteResult)
		pump = func(r blockdev.WriteResult) {
			if !stop {
				agg.Write(0, 32, nil, pump)
			}
		}
		for i := 0; i < 64; i++ {
			agg.Write(0, 32, nil, pump)
		}

		// Let the backlog establish, then issue one interactive read.
		eng.RunUntil(5 * sim.Millisecond)
		start := eng.Now()
		vic.Read(0, 1, func(r blockdev.ReadResult) {
			victimLat = eng.Now() - start
			stop = true
		})
		eng.RunUntil(start + 10*sim.Second)
		if victimLat == 0 {
			t.Fatal("victim read never completed")
		}
		return victimLat
	}

	qos := run(Config{MaxInflight: 8})
	raw := run(Config{DisableQoS: true})
	// With QoS the victim waits behind at most the in-flight window; with
	// raw FIFO it waits behind the entire aggressor backlog.
	if qos*4 > raw {
		t.Fatalf("isolation too weak: victim latency %dns with QoS vs %dns without", qos, raw)
	}
}

// TestWeightedShareUnderContention: two saturating tenants split device
// throughput by WFQ weight.
func TestWeightedShareUnderContention(t *testing.T) {
	eng, _, m := newManager(t, 1<<20, Config{MaxInflight: 4})
	heavy, _ := m.Open("heavy", Options{Blocks: 1 << 12, QoS: QoS{Weight: 3}})
	light, _ := m.Open("light", Options{Blocks: 1 << 12, QoS: QoS{Weight: 1}})
	for _, v := range []*Volume{heavy, light} {
		v := v
		var pump func(r blockdev.WriteResult)
		pump = func(r blockdev.WriteResult) { v.Write(0, 4, nil, pump) }
		for i := 0; i < 16; i++ {
			v.Write(0, 4, nil, pump)
		}
	}
	eng.RunUntil(200 * sim.Millisecond)
	h, l := heavy.Stats().Ops, light.Stats().Ops
	ratio := float64(h) / float64(l)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("ops ratio heavy/light = %.2f (%d/%d), want ~3", ratio, h, l)
	}
}

func TestDisableQoSPassthrough(t *testing.T) {
	eng, dev, m := newManager(t, 1000, Config{DisableQoS: true})
	v, _ := m.Open("v", Options{Blocks: 100, QoS: QoS{RateBytesPerSec: 1}})
	dev.order = []int64{}
	for i := 0; i < 10; i++ {
		v.Write(int64(i), 1, nil, nil)
	}
	eng.Run()
	if dev.served != 10 {
		t.Fatalf("served %d, want 10 (rate limit must be bypassed)", dev.served)
	}
	if st := v.Stats(); st.ThrottleStalls != 0 || st.Ops != 10 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTrimMappedAndForwarded(t *testing.T) {
	eng, _, m := newManager(t, 1000, Config{})
	_, _ = m.Open("pad", Options{Blocks: 300})
	v, _ := m.Open("v", Options{Blocks: 100})
	v.Trim(10, 5)
	v.Trim(99, 5) // out of range: dropped at the volume boundary
	eng.Run()
	if st := v.Stats(); st.Trims != 1 {
		t.Fatalf("trims = %d, want 1", st.Trims)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, _, m := newManager(t, 1<<16, Config{})
	v, _ := m.Open("v", Options{Blocks: 1 << 10})
	for i := 0; i < 5; i++ {
		v.Write(0, 2, nil, nil)
		v.Read(0, 1, nil)
	}
	eng.Run()
	st := v.Stats()
	if st.Ops != 10 || st.Writes != 5 || st.Reads != 5 {
		t.Fatalf("counts %+v", st)
	}
	wantBytes := uint64(5*2+5*1) * uint64(m.bs)
	if st.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", st.Bytes, wantBytes)
	}
	if st.QueueDepth != 0 || st.MaxQueueDepth < 1 {
		t.Fatalf("queue depth %+v", st)
	}
}

// TestSteadyStateAllocationFree: after warm-up, the submit→dispatch→
// complete cycle allocates nothing in the volume layer.
func TestSteadyStateAllocationFree(t *testing.T) {
	eng, _, m := newManager(t, 1<<20, Config{MaxInflight: 4})
	v, _ := m.Open("v", Options{Blocks: 1 << 12})
	warm := func(n int) {
		for i := 0; i < n; i++ {
			v.Write(0, 4, nil, nil)
		}
		eng.Run()
	}
	warm(64)
	allocs := testing.AllocsPerRun(50, func() { warm(8) })
	if allocs > 0 {
		t.Fatalf("steady-state cycle allocates %.1f per run", allocs)
	}
}

// TestDeterministicReplay: the same multi-tenant schedule runs twice to
// identical virtual end times and stats.
func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, []Stats) {
		eng, _, m := newManager(t, 1<<20, Config{MaxInflight: 6})
		var vols []*Volume
		for i := 0; i < 4; i++ {
			v, err := m.Open(string(rune('a'+i)), Options{Blocks: 1 << 10, QoS: QoS{
				Weight:          1 + i,
				RateBytesPerSec: int64(1+i) << 22,
			}})
			if err != nil {
				t.Fatal(err)
			}
			vols = append(vols, v)
		}
		for i := 0; i < 200; i++ {
			v := vols[i%len(vols)]
			if i%3 == 0 {
				v.Read(int64(i%100), 1, nil)
			} else {
				v.Write(int64(i%100), 1+i%8, nil, nil)
			}
		}
		eng.Run()
		stats := make([]Stats, len(vols))
		for i, v := range vols {
			stats[i] = v.Stats()
		}
		return eng.Now(), stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("end times differ: %d vs %d", t1, t2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("volume %d stats diverged: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}
