package biza

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"biza/internal/core"
	"biza/internal/fault"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// adminArray is a small StoreData array (2 MiB zones) holding n
// acknowledged blocks, each its own pattern; want maps every lba to its
// payload.
func adminArray(t *testing.T, opts Options, n int) (*Array, map[int64][]byte) {
	t.Helper()
	opts.StoreData = true
	opts.ZNS = stack.BenchZNS(32)
	opts.ZNS.ZoneBlocks, opts.ZNS.ZRWABlocks = 512, 64
	arr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte, n)
	for i := 0; i < n; i++ {
		lba := int64(i)
		data := bytes.Repeat([]byte{byte(i + 1)}, arr.p.Dev.BlockSize())
		if err := arr.WriteSync(lba, 1, data); err != nil {
			t.Fatal(err)
		}
		want[lba] = data
	}
	return arr, want
}

// readsBack asserts every block in want reads back intact.
func readsBack(t *testing.T, arr *Array, want map[int64][]byte, when string) {
	t.Helper()
	for lba, data := range want {
		got, err := arr.ReadSync(lba, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: lba %d: err %v, content intact %v", when, lba, err, bytes.Equal(got, data))
		}
	}
}

// TestReplaceDevicePacedCompletes: a paced replacement restores every
// member to healthy, takes at least one step gap of virtual time, and
// leaves every block readable with any one member failed.
func TestReplaceDevicePacedCompletes(t *testing.T) {
	arr, want := adminArray(t, Options{Seed: 1}, 256)
	gap := int64(100 * sim.Microsecond)
	start := arr.Now()
	if err := arr.ReplaceDevicePaced(1, 2, gap); err != nil {
		t.Fatal(err)
	}
	if arr.Now()-start < gap {
		t.Fatalf("paced rebuild took %d ns, less than one step gap of %d", arr.Now()-start, gap)
	}
	if n := arr.p.Replacements(); n != 1 {
		t.Fatalf("replacements = %d, want 1", n)
	}
	for i, s := range arr.Health() {
		if s != MemberHealthy {
			t.Fatalf("member %d = %v after the rebuild", i, s)
		}
	}
	readsBack(t, arr, want, "after the rebuild")
	if err := arr.SetDeviceFailed(1, true); err != nil {
		t.Fatal(err)
	}
	readsBack(t, arr, want, "with the replaced member failed")
}

// TestScrubRunsToCompletion: a paced scrub reads the whole array — it
// takes at least the gaps between its steps — on a clean array and on one
// whose member 0 cannot read any zone, where reconstruction serves it.
// With a second member failed the rot is beyond RAID 5, and the scrub
// fails with ErrUnreadable.
func TestScrubRunsToCompletion(t *testing.T) {
	const per = 4096
	gap := int64(200 * sim.Microsecond)
	scrub := func(arr *Array) error {
		t.Helper()
		start := arr.Now()
		err := arr.Scrub(per, gap)
		steps := (arr.Blocks() + per - 1) / per
		if took := arr.Now() - start; took < (steps-1)*gap {
			t.Fatalf("scrub took %d ns, less than its %d gaps of %d ns", took, steps-1, gap)
		}
		return err
	}

	clean, _ := adminArray(t, Options{Seed: 3}, 64)
	if err := scrub(clean); err != nil {
		t.Fatalf("clean scrub: %v", err)
	}
	if n := clean.Reconstructions(); n != 0 {
		t.Fatalf("clean scrub reconstructed %d chunks", n)
	}

	var rules []fault.Rule
	cfg := clean.p.ZNSDevs[0].Config()
	for z := 0; z < cfg.NumZones; z++ {
		rules = append(rules, fault.BadBlocks(0, z, 0, int(cfg.ZoneBlocks)))
	}
	rotten, _ := adminArray(t, Options{Seed: 3, Faults: &FaultSpec{Rules: rules}}, 64)
	if err := scrub(rotten); err != nil {
		t.Fatalf("scrub over unreadable member 0: %v", err)
	}
	if rotten.Reconstructions() == 0 {
		t.Fatal("scrub over unreadable member 0 reconstructed nothing")
	}
	if err := rotten.SetDeviceFailed(1, true); err != nil {
		t.Fatal(err)
	}
	if err := scrub(rotten); !errors.Is(err, storerr.ErrUnreadable) {
		t.Fatalf("scrub with member 0 unreadable and member 1 failed: err = %v, want ErrUnreadable", err)
	}
}

// TestAdminMethodSentinels pins the errors.Is identities of the
// administrative methods: ErrCrashed for every one but Recover while
// crashed, ErrWrongState for a double crash or a recover of a live array,
// ErrNotFound for a member beyond the array. A refused replace, like one
// while crashed, counts no replacement. TestAdminFacadeNonBIZA
// checks ErrNotSupported on kinds without a BIZA engine.
func TestAdminMethodSentinels(t *testing.T) {
	arr, _ := adminArray(t, Options{Seed: 6}, 16)
	if err := arr.Recover(); !errors.Is(err, storerr.ErrWrongState) {
		t.Fatalf("recover of a live array: err = %v, want ErrWrongState", err)
	}
	replacements := arr.p.Replacements()
	if err := arr.ReplaceDevicePaced(9, 0, 0); !errors.Is(err, storerr.ErrNotFound) {
		t.Fatalf("replace of member 9: err = %v, want ErrNotFound", err)
	}
	if n := arr.p.Replacements(); n != replacements {
		t.Fatalf("replacements = %d after a refused replace of member 9, want %d", n, replacements)
	}
	if err := arr.SetDeviceFailed(9, true); !errors.Is(err, storerr.ErrNotFound) {
		t.Fatalf("fail member 9: err = %v, want ErrNotFound", err)
	}
	if err := arr.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := arr.Crash(); !errors.Is(err, storerr.ErrWrongState) {
		t.Fatalf("double crash: err = %v, want ErrWrongState", err)
	}
	for name, err := range map[string]error{
		"replace":     arr.ReplaceDevicePaced(0, 0, 0),
		"scrub":       arr.Scrub(0, 0),
		"set-failed":  arr.SetDeviceFailed(0, true),
		"write":       arr.WriteSync(0, 1, nil),
		"set-healthy": arr.SetDeviceFailed(0, false),
	} {
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("%s while crashed: err = %v, want ErrCrashed", name, err)
		}
	}
	if n := arr.p.Replacements(); n != replacements {
		t.Fatalf("replacements = %d after a replace while crashed, want %d", n, replacements)
	}
	if err := arr.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := arr.Scrub(0, 0); err != nil {
		t.Fatalf("scrub after recovery: %v", err)
	}
}

// TestAdminFacadeNonBIZA: the administrative methods that need a BIZA
// engine fail with ErrNotSupported on a baseline kind.
func TestAdminFacadeNonBIZA(t *testing.T) {
	raizn, err := New(Options{Kind: RAIZN, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"crash":      raizn.Crash(),
		"recover":    raizn.Recover(),
		"set-failed": raizn.SetDeviceFailed(0, true),
		"replace":    raizn.ReplaceDevicePaced(0, 0, 0),
	} {
		if !errors.Is(err, storerr.ErrNotSupported) {
			t.Fatalf("RAIZN %s: err = %v, want ErrNotSupported", name, err)
		}
	}
}

// TestAdminFacade drives every administrative method through the public
// Array surface in one sequence: each call succeeds, the two replacements
// are counted, a replacement of a member beyond the array fails with
// ErrNotFound, and afterwards every member is healthy and every acknowledged block
// reads back.
func TestAdminFacade(t *testing.T) {
	arr, want := adminArray(t, Options{Seed: 11}, 64)
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"scrub", func() error { return arr.Scrub(4096, 0) }},
		{"paced replace", func() error { return arr.ReplaceDevicePaced(1, 4, 100_000) }},
		{"crash", arr.Crash},
		{"recover", arr.Recover},
		{"set-failed", func() error { return arr.SetDeviceFailed(0, true) }},
		{"set-healthy", func() error { return arr.SetDeviceFailed(0, false) }},
		{"replace", func() error { return arr.ReplaceDevicePaced(2, 0, 0) }},
	} {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if n := arr.p.Replacements(); n != 2 {
		t.Fatalf("replacements = %d, want 2", n)
	}
	if err := arr.ReplaceDevicePaced(9, 0, 0); !errors.Is(err, storerr.ErrNotFound) {
		t.Fatalf("replace of member 9: err = %v, want ErrNotFound", err)
	}
	for i, s := range arr.Health() {
		if s != MemberHealthy {
			t.Fatalf("member %d = %v after the sequence", i, s)
		}
	}
	readsBack(t, arr, want, "after the sequence")
}

// TestAdminScheduleReplayBitIdentical: administrative calls made at
// virtual times of the caller's choosing, in the middle of a foreground
// workload pinned to virtual times, run identically on two fresh arrays
// of the same seed. After each call the log records the virtual time, the
// result, member health, replacement and reconstruction counts and the
// write amplification; the two logs must be byte-identical.
func TestAdminScheduleReplayBitIdentical(t *testing.T) {
	run := func() string {
		arr, err := New(Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			lba := int64(i % 256)
			arr.Engine().At(sim.Time(i)*20*sim.Microsecond, func() {
				arr.p.Dev.Write(lba, 1, nil, nil)
			})
		}
		var log strings.Builder
		record := func(call string, err error) {
			if err != nil {
				t.Fatalf("%s: %v", call, err)
			}
			fmt.Fprintf(&log, "%d %s %v %v %d %d %+v\n", arr.Now(), call, err, arr.Health(),
				arr.p.Replacements(), arr.Reconstructions(), arr.WriteAmp())
		}
		runUntil := func(at sim.Time) { arr.RunFor(int64(at) - arr.Now()) }
		runUntil(2 * sim.Millisecond)
		record("replace 1", arr.ReplaceDevicePaced(1, 2, 100_000))
		runUntil(arr.Engine().Now() + 2*sim.Millisecond)
		record("scrub", arr.Scrub(4096, 0))
		record("fail 2", arr.SetDeviceFailed(2, true))
		runUntil(arr.Engine().Now() + 2*sim.Millisecond)
		record("heal 2", arr.SetDeviceFailed(2, false))
		record("replace 0", arr.ReplaceDevicePaced(0, 4, 0))
		arr.Run()
		record("drained", nil)
		return log.String()
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("the same schedule ran differently:\n%s\nthen\n%s", first, again)
	}
}

// TestCrashMidPacedRebuild: power is cut while a paced rebuild waits out a
// step gap, and the array recovers before that gap ends. The stale step
// then fires on the engine the crash retired, whose driver queues drop
// every command it issues: the rebuild never reports, and the platform's
// replacement count and member devices stay as Recover left them. Every
// acknowledged write reads back but those ROADMAP item 1(k) loses.
func TestCrashMidPacedRebuild(t *testing.T) {
	arr, want := adminArray(t, Options{Seed: 9}, 256)
	p := arr.p
	gap := 50 * sim.Millisecond
	staleAt := sim.Time(-1)
	rebuilt := false
	ctl := core.RebuildControl{StripesPerStep: 1, StepGap: gap,
		OnProgress: func(done, total int) {
			if staleAt >= 0 {
				t.Errorf("rebuild progressed to %d of %d after the crash", done, total)
				return
			}
			if done == total {
				t.Fatal("rebuild finished in one step; nothing left to interrupt")
			}
			// The next step is scheduled gap from now, once this returns.
			staleAt = arr.Now() + gap
			arr.Engine().After(1, func() {
				if err := arr.Crash(); err != nil {
					t.Error(err)
				}
			})
		}}
	p.ReplaceDevicePaced(1, ctl, func(err error) { rebuilt = true })
	for !p.Crashed() {
		if arr.Now() > int64(sim.Second) {
			t.Fatal("no rebuild step completed within 1 s of virtual time")
		}
		arr.RunFor(int64(sim.Millisecond))
	}

	// Just before the stale step fires, record what Recover left.
	var devs []*zns.Device
	var stats []zns.FlashStats
	var replacements uint64
	arr.Engine().At(staleAt-1, func() {
		if p.Crashed() {
			t.Fatalf("recovery still running at %d ns; the stale step would fire before it ends", staleAt-1)
		}
		devs = append(devs, p.ZNSDevs...)
		for _, d := range devs {
			stats = append(stats, d.Stats())
		}
		replacements = p.Replacements()
	})
	queues := p.Queues()
	if err := arr.Recover(); err != nil {
		t.Fatal(err)
	}
	if arr.Now() < int64(staleAt) {
		t.Fatalf("engine stopped at %d ns, before the stale step at %d", arr.Now(), staleAt)
	}
	if devs == nil {
		t.Fatal("the snapshot before the stale step never ran")
	}
	if rebuilt {
		t.Fatal("the interrupted rebuild reported")
	}
	if n := p.Replacements(); n != 1 || n != replacements {
		t.Fatalf("replacements = %d after the stale step, %d before, want 1", n, replacements)
	}
	for i, d := range p.ZNSDevs {
		if d != devs[i] || d.Stats() != stats[i] {
			t.Fatalf("member %d's device changed after the stale step", i)
		}
		if p.Queues()[i] == queues[i] {
			t.Fatalf("member %d kept the queue the crash killed", i)
		}
	}
	// A known defect (ROADMAP item 1(k)), pinned rather than hidden:
	// recovery rebuilds its tables from the OOB records of the devices it
	// finds, and the spare holds none for the stripes the rebuild had not
	// reached yet. A block whose chunk lived on the replaced member in such
	// a stripe has no record left, and a stripe whose parity lived there
	// looks never acknowledged and is dropped whole. Either way the block
	// comes back unmapped: it reads as zeros, without an error. Every
	// other block reads back intact.
	zero := make([]byte, arr.p.Dev.BlockSize())
	lost := 0
	for lba, data := range want {
		got, err := arr.ReadSync(lba, 1)
		if err != nil {
			t.Fatalf("lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, data) {
			if !bytes.Equal(got, zero) {
				t.Fatalf("lba %d reads neither its data nor zeros", lba)
			}
			lost++
		}
	}
	t.Logf("%d of %d acknowledged blocks lost", lost, len(want))
	if lost == 0 {
		t.Fatal("every acknowledged block survived: item 1(k) is mended, so require it here")
	}
}

// TestCommandSequenceProperties drives random sequences of the
// administrative methods, interleaved with payload writes, against a
// model of the array: whether it is crashed and which member is failed.
// Every call must return what the model says — nil or its sentinel — and
// every member's health must match; after the sequence every
// acknowledged write reads back. Each seed runs twice, and the two logs of
// virtual time and result per call must be identical.
func TestCommandSequenceProperties(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			first := commandSequence(t, seed)
			if again := commandSequence(t, seed); again != first {
				t.Fatalf("the same seed ran differently:\n%s\nthen\n%s", first, again)
			}
		})
	}
}

// commandSequence runs one seed's sequence and returns its log.
func commandSequence(t *testing.T, seed uint64) string {
	arr, want := adminArray(t, Options{Seed: seed}, 32)
	members := len(arr.Health())
	rng := sim.NewRNG(seed)
	var log strings.Builder
	crashed, failed := false, -1 // failed: the failed member, -1 for none
	for i := 0; i < 40; i++ {
		var call string
		var err, expect error
		switch rng.Intn(7) {
		case 0:
			call, err = "crash", arr.Crash()
			if crashed {
				expect = storerr.ErrWrongState
			}
			crashed = true
		case 1:
			call, err = "recover", arr.Recover()
			expect = storerr.ErrWrongState
			if crashed {
				// The recovered engine knows no failed member.
				expect, failed = nil, -1
			}
			crashed = false
		case 2:
			// The failed member if there is one; else any, or one past the
			// last.
			dev := rng.Intn(members + 1)
			if failed >= 0 {
				dev = failed
			}
			per, gap := 1+rng.Intn(8), int64(rng.Intn(3))*int64(50*sim.Microsecond)
			call, err = fmt.Sprintf("replace %d", dev), arr.ReplaceDevicePaced(dev, per, gap)
			switch {
			case crashed:
				expect = ErrCrashed
			case dev == members:
				expect = storerr.ErrNotFound
			default:
				failed = -1
			}
		case 3:
			call, err = "scrub", arr.Scrub(1024<<rng.Intn(3), 0)
			if crashed {
				expect = ErrCrashed
			}
		case 4:
			dev, fail := rng.Intn(members+1), true
			if failed >= 0 {
				dev, fail = failed, false
			}
			call, err = fmt.Sprintf("set-failed %d %v", dev, fail), arr.SetDeviceFailed(dev, fail)
			switch {
			case crashed:
				expect = ErrCrashed
			case dev == members:
				expect = storerr.ErrNotFound
			case fail:
				failed = dev
			default:
				failed = -1
			}
		default:
			lba := rng.Int63n(64)
			data := bytes.Repeat([]byte{byte(i + 1)}, arr.p.Dev.BlockSize())
			call, err = fmt.Sprintf("write %d", lba), arr.WriteSync(lba, 1, data)
			if crashed {
				expect = ErrCrashed
			} else {
				want[lba] = data
			}
		}
		fmt.Fprintf(&log, "%d %s: %v\n", arr.Now(), call, err)
		if !errors.Is(err, expect) { // a nil expect takes a nil err only
			t.Fatalf("call %d, %s: err = %v, want %v\n%s", i, call, err, expect, log.String())
		}
		if crashed {
			continue
		}
		for m, s := range arr.Health() {
			wantS := MemberHealthy
			if m == failed {
				wantS = MemberDegraded
			}
			if s != wantS {
				t.Fatalf("call %d, %s: member %d is %v with member %d failed\n%s", i, call, m, s, failed, log.String())
			}
		}
	}
	if crashed {
		if err := arr.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	readsBack(t, arr, want, "after the sequence")
	return log.String()
}
