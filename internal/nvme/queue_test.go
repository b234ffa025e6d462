package nvme

import (
	"errors"
	"runtime"
	"testing"

	"biza/internal/fault"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

func newStack(t *testing.T, cfg Config) (*sim.Engine, *Queue) {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := zns.New(eng, zns.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(dev, cfg)
}

func TestPassthroughInOrder(t *testing.T) {
	eng, q := newStack(t, Config{})
	var errs []error
	for i := 0; i < 8; i++ {
		lba := int64(i)
		q.Write(0, lba, 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) {
			errs = append(errs, r.Err)
		})
	}
	eng.Run()
	if len(errs) != 8 {
		t.Fatalf("completions = %d", len(errs))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("write %d failed: %v", i, err)
		}
	}
	if q.Reordered() != 0 {
		t.Fatal("zero-window queue reordered commands")
	}
}

// TestReorderingBreaksNaiveParallelWrites demonstrates the §3.2 hazard:
// parallel sequential writes to one zone fail under driver reordering
// when nothing serializes them.
func TestReorderingBreaksNaiveParallelWrites(t *testing.T) {
	eng, q := newStack(t, Config{ReorderWindow: 20 * sim.Microsecond, Seed: 5})
	failures := 0
	// Non-ZRWA zone: strict sequential rule. Issue a burst of in-flight
	// sequential writes; jittered delivery must reorder some and the late
	// arrivals fail ErrNotSequential.
	for i := 0; i < 64; i++ {
		q.Write(0, int64(i), 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) {
			if errors.Is(r.Err, zns.ErrNotSequential) {
				failures++
			}
		})
	}
	eng.Run()
	if q.Reordered() == 0 {
		t.Fatal("no reordering with a 20us window")
	}
	if failures == 0 {
		t.Fatal("reordering caused no write failures — hazard not modeled")
	}
}

// TestZoneOrderedDeliveryPreventsFailures shows zone write locking
// (mq-deadline) restores per-zone order and the same burst succeeds.
func TestZoneOrderedDeliveryPreventsFailures(t *testing.T) {
	eng, q := newStack(t, Config{ReorderWindow: 20 * sim.Microsecond, ZoneOrdered: true, Seed: 5})
	var errs int
	for z := 0; z < 4; z++ {
		for i := 0; i < 32; i++ {
			q.Write(z, int64(i), 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) {
				if r.Err != nil {
					errs++
				}
			})
		}
	}
	eng.Run()
	if errs != 0 {
		t.Fatalf("%d writes failed despite zone-ordered delivery", errs)
	}
}

func TestReorderDeterminism(t *testing.T) {
	run := func() uint64 {
		eng, q := newStack(t, Config{ReorderWindow: 10 * sim.Microsecond, Seed: 42})
		for i := 0; i < 100; i++ {
			q.Write(i%4, int64(i/4), 1, nil, nil, zns.TagUserData, nil)
		}
		eng.Run()
		return q.Reordered()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %d vs %d", a, b)
	}
}

func TestReadThroughQueue(t *testing.T) {
	eng, q := newStack(t, Config{ReorderWindow: 5 * sim.Microsecond, Seed: 1})
	data := make([]byte, 4096)
	for i := range data {
		data[i] = 0xab
	}
	okWrite := false
	q.Write(0, 0, 1, data, nil, zns.TagUserData, func(r zns.WriteResult) { okWrite = r.Err == nil })
	eng.Run()
	if !okWrite {
		t.Fatal("write failed")
	}
	var got []byte
	q.ReadInto(0, 0, 1, nil, false, func(r zns.ReadResult) { got = r.Data })
	eng.Run()
	if len(got) != 4096 || got[0] != 0xab {
		t.Fatal("read through queue returned wrong data")
	}
}

func TestAppendAndResetThroughQueue(t *testing.T) {
	eng, q := newStack(t, Config{ReorderWindow: 2 * sim.Microsecond, Seed: 9})
	var lba int64 = -1
	q.Append(1, 2, nil, nil, zns.TagUserData, func(r zns.WriteResult) {
		if r.Err == nil {
			lba = r.LBA
		}
	})
	eng.Run()
	if lba != 0 {
		t.Fatalf("append lba = %d", lba)
	}
	resetDone := false
	q.Reset(1, func(err error) { resetDone = err == nil })
	eng.Run()
	if !resetDone {
		t.Fatal("reset did not complete")
	}
	info, _ := q.Device().ZoneInfo(1)
	if info.WritePtr != 0 {
		t.Fatal("reset ineffective")
	}
}

func TestLatencyIncludesQueueDelay(t *testing.T) {
	eng, q := newStack(t, Config{ReorderWindow: 50 * sim.Microsecond, Seed: 3})
	var lat sim.Time
	q.Write(0, 0, 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) { lat = r.Latency })
	eng.Run()
	// End-to-end latency counts from submission, so it includes jitter.
	if lat <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestZoneOrderedPropertyUnderRandomJitter(t *testing.T) {
	// Property: with ZoneOrdered set, per-zone sequential writes never
	// fail regardless of jitter window or seed.
	for seed := uint64(0); seed < 20; seed++ {
		eng, q := newStack(t, Config{
			ReorderWindow: sim.Time(1+seed%7) * 10 * sim.Microsecond,
			ZoneOrdered:   true,
			Seed:          seed,
		})
		failures := 0
		for z := 0; z < 4; z++ {
			for i := 0; i < 40; i++ {
				q.Write(z, int64(i), 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) {
					if r.Err != nil {
						failures++
					}
				})
			}
		}
		eng.Run()
		if failures > 0 {
			t.Fatalf("seed %d: %d ordered writes failed", seed, failures)
		}
	}
}

func injected(t *testing.T, spec *fault.Spec, seed uint64) *fault.Injector {
	t.Helper()
	p, err := fault.Compile(spec, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p.Injector(0)
}

func TestRetryRecoversTransientErrors(t *testing.T) {
	eng, q := newStack(t, Config{Seed: 2})
	q.SetInjector(injected(t, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.Transient, Dev: 0, Op: fault.Write, Rate: 1, MaxCount: 2},
	}}, 2))
	var res zns.WriteResult
	ok := false
	start := eng.Now()
	q.Write(0, 0, 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) { res = r; ok = true })
	eng.Run()
	if !ok || res.Err != nil {
		t.Fatalf("write not recovered: ok=%v err=%v", ok, res.Err)
	}
	if q.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", q.Retries())
	}
	// Exponential backoff: two retries cost at least 20us + 40us.
	if eng.Now()-start < 60*sim.Microsecond {
		t.Fatalf("retries completed too fast: %v", eng.Now()-start)
	}
}

func TestRetriesExhaustedSurfaceTransient(t *testing.T) {
	eng, q := newStack(t, Config{Seed: 3})
	q.SetInjector(injected(t, &fault.Spec{Rules: []fault.Rule{
		fault.TransientErrors(0, fault.AnyOp, 1),
	}}, 3))
	var werr error
	q.Write(0, 0, 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) { werr = r.Err })
	eng.Run()
	if !errors.Is(werr, storerr.ErrTransient) {
		t.Fatalf("err = %v", werr)
	}
	if q.Retries() != maxRetries {
		t.Fatalf("retries = %d, want %d", q.Retries(), maxRetries)
	}
}

// TestKillDuringRetryBackoffDropsCompletion pins the teardown ordering of
// the retry path: a Kill landing while a retry sits in its backoff window
// must swallow the eventual redelivery — no completion fires, nothing
// panics, and the pooled record is recycled rather than leaked.
func TestKillDuringRetryBackoffDropsCompletion(t *testing.T) {
	eng, q := newStack(t, Config{Seed: 13})
	q.SetInjector(injected(t, &fault.Spec{Rules: []fault.Rule{
		fault.TransientErrors(0, fault.AnyOp, 1),
	}}, 13))
	completions := 0
	q.Write(0, 0, 1, nil, nil, zns.TagUserData, func(zns.WriteResult) { completions++ })
	// Step until the first retry has been scheduled, then cut the host.
	for q.Retries() == 0 && eng.Step() {
	}
	if q.Retries() == 0 {
		t.Fatal("no retry was ever scheduled")
	}
	q.Kill()
	eng.Run()
	if completions != 0 {
		t.Fatalf("%d completions fired after Kill during backoff", completions)
	}
	if len(*q.opFree) != 1 {
		t.Fatalf("op record not recycled after dead-queue retry: pool=%d", len(*q.opFree))
	}
}

func TestInjectedDeathCompletesWithErrors(t *testing.T) {
	// A dead device must answer every in-flight command with an error
	// completion — nothing hangs, nothing is silently dropped.
	eng, q := newStack(t, Config{ReorderWindow: 10 * sim.Microsecond, Seed: 5})
	q.SetInjector(injected(t, &fault.Spec{Rules: []fault.Rule{
		fault.KillDevice(0, 1), // dead from t=1ns on
	}}, 5))
	completions, deadErrs := 0, 0
	for i := 0; i < 16; i++ {
		q.Write(0, int64(i), 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) {
			completions++
			if errors.Is(r.Err, storerr.ErrDeviceDead) {
				deadErrs++
			}
		})
	}
	q.ReadInto(0, 0, 1, nil, false, func(r zns.ReadResult) {
		completions++
		if errors.Is(r.Err, storerr.ErrDeviceDead) {
			deadErrs++
		}
	})
	eng.Run()
	if completions != 17 || deadErrs != 17 {
		t.Fatalf("completions=%d deadErrs=%d", completions, deadErrs)
	}
}

func TestInjectedLatencyDelaysDelivery(t *testing.T) {
	eng, q := newStack(t, Config{Seed: 6})
	q.SetInjector(injected(t, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.Latency, Dev: 0, Op: fault.Write, Delay: 500 * sim.Microsecond},
	}}, 6))
	var lat sim.Time
	q.Write(0, 0, 1, nil, nil, zns.TagUserData, func(r zns.WriteResult) { lat = r.Latency })
	eng.Run()
	if lat < 500*sim.Microsecond {
		t.Fatalf("latency %v does not include the injected spike", lat)
	}
}

func TestKillDropsInFlightSilently(t *testing.T) {
	// Kill models host power loss: submitted commands vanish and their
	// completions never fire (crash semantics, not error semantics).
	eng, q := newStack(t, Config{ReorderWindow: 10 * sim.Microsecond, Seed: 7})
	completions := 0
	for i := 0; i < 8; i++ {
		q.Write(0, int64(i), 1, nil, nil, zns.TagUserData, func(zns.WriteResult) { completions++ })
	}
	q.Kill()
	eng.Run()
	if completions != 0 {
		t.Fatalf("%d completions fired after Kill", completions)
	}
	if !q.dead {
		t.Fatal("Kill left the queue live")
	}
}

// TestOpRecordAllocFree gates the driver's records: a pooled one costs a
// command nothing, and a fresh one costs itself plus the one forwarding
// callback of the kind of command it carries — a queue that only ever
// writes binds no read, append or reset callback. (All four were bound on
// every fresh record: five allocations each.)
func TestOpRecordAllocFree(t *testing.T) {
	eng, q := newStack(t, Config{})
	if err := q.Device().Open(0, true); err != nil {
		t.Fatal(err)
	}
	var failed error
	wdone := func(r zns.WriteResult) {
		if r.Err != nil {
			failed = r.Err
		}
	}
	rdone := func(r zns.ReadResult) {
		if r.Err != nil {
			failed = r.Err
		}
	}
	dst := make([]byte, 4096)
	write := func() { // an overwrite inside the ZRWA window
		q.Write(0, 0, 1, nil, nil, zns.TagUserData, wdone)
		eng.Run()
	}
	read := func() {
		q.ReadInto(0, 0, 1, dst, false, rdone)
		eng.Run()
	}
	mallocs := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	for i := 0; i < 4; i++ { // warm the device, the event heap and the free list
		write()
		read()
	}
	*q.opFree = (*q.opFree)[:0] // the next command takes a fresh record

	if got := mallocs(write); got != 2 {
		t.Errorf("the first write on a fresh record allocates %d times, want 2: the record and its write callback", got)
	}
	op := (*q.opFree)[0]
	if op.wfwd == nil || op.rfwd != nil || op.efwd != nil {
		t.Errorf("a record that has only written holds callbacks write=%t read=%t reset=%t",
			op.wfwd != nil, op.rfwd != nil, op.efwd != nil)
	}
	if got := mallocs(read); got != 1 {
		t.Errorf("the first read on a record that has written allocates %d times, want 1: its read callback", got)
	}
	if got := mallocs(func() { write(); read() }); got != 0 {
		t.Errorf("a write and a read on a pooled record allocate %d times, want 0", got)
	}
	if failed != nil {
		t.Fatal(failed)
	}
}
