package admin

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/storerr"
)

func smallOpts(seed uint64) stack.Options {
	z := stack.BenchZNS(32)
	z.ZoneBlocks = 512 // 2 MiB zones keep rebuilds fast
	z.ZRWABlocks = 64
	return stack.Options{ZNS: z, Seed: seed}
}

func newBIZA(t *testing.T, seed uint64) (*stack.Platform, *Orchestrator) {
	t.Helper()
	p, err := stack.New(stack.KindBIZA, smallOpts(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p, New(p)
}

// fill writes n blocks so replacement and scrub jobs have work.
func fill(t *testing.T, p *stack.Platform, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p.Dev.Write(int64(i), 1, nil, nil)
	}
	p.Eng.Run()
}

func TestReplaceJobPacedCompletes(t *testing.T) {
	p, o := newBIZA(t, 1)
	fill(t, p, 256)
	id, err := o.Submit(KindReplace, Params{Device: 1, StripesPerStep: 2, StepGapNanos: int64(100 * sim.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	j, ok := o.Job(id)
	if !ok || j.State != StateDone {
		t.Fatalf("job = %+v, want done", j)
	}
	if j.Progress.Done == 0 || j.Progress.Done != j.Progress.Total {
		t.Fatalf("progress = %+v, want complete and non-empty", j.Progress)
	}
	if p.Replacements() != 1 {
		t.Fatalf("replacements = %d, want 1", p.Replacements())
	}
	if j.FinishedAt <= j.StartedAt || j.StartedAt < j.SubmittedAt {
		t.Fatalf("timestamps out of order: %+v", j)
	}
}

// TestRollingReplaceSerializes: one queue per array means submitting a
// replace per member IS a rolling replacement — each rebuild starts only
// after the previous one restored redundancy.
func TestRollingReplaceSerializes(t *testing.T) {
	p, o := newBIZA(t, 2)
	fill(t, p, 256)
	var ids []uint64
	for dev := 0; dev < 3; dev++ {
		id, err := o.Submit(KindReplace, Params{Device: dev, StripesPerStep: 4, StepGapNanos: int64(50 * sim.Microsecond)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	p.Eng.Run()
	var prev Job
	for i, id := range ids {
		j, _ := o.Job(id)
		if j.State != StateDone {
			t.Fatalf("job %d = %+v, want done", id, j)
		}
		if i > 0 && j.StartedAt < prev.FinishedAt {
			t.Fatalf("job %d started at %d before job %d finished at %d",
				j.ID, j.StartedAt, prev.ID, prev.FinishedAt)
		}
		prev = j
	}
	if p.Replacements() != 3 {
		t.Fatalf("replacements = %d, want 3", p.Replacements())
	}
}

// TestScrubRunsToCompletion: a paced scrub reads the whole array step by
// step, its progress only ever advancing, and finishes done with every
// block read; a second scrub queued behind it starts only after it.
func TestScrubRunsToCompletion(t *testing.T) {
	p, o := newBIZA(t, 3)
	fill(t, p, 64)
	gap := int64(200 * sim.Microsecond)
	id, err := o.Submit(KindScrub, Params{BlocksPerStep: 512, GapNanos: gap})
	if err != nil {
		t.Fatal(err)
	}
	next, _ := o.Submit(KindScrub, Params{BlocksPerStep: 2048})
	var steps int
	var last int64
	o.SetOnChange(func() {
		j, _ := o.Job(id)
		if j.Progress.Done < last {
			t.Errorf("progress went back from %d to %d", last, j.Progress.Done)
		}
		if j.Progress.Done > last {
			steps++
		}
		last = j.Progress.Done
	})
	p.Eng.Run()
	j, _ := o.Job(id)
	if j.State != StateDone || j.Progress.Total != p.Dev.Blocks() || j.Progress.Done != j.Progress.Total {
		t.Fatalf("scrub = %+v, want done over all %d blocks", j, p.Dev.Blocks())
	}
	if want := int((p.Dev.Blocks() + 511) / 512); steps != want {
		t.Fatalf("scrub advanced in %d steps, want %d", steps, want)
	}
	if min := (int64(steps) - 1) * gap; j.FinishedAt-j.StartedAt < min {
		t.Fatalf("scrub took %d ns, less than its %d gaps of %d ns", j.FinishedAt-j.StartedAt, steps-1, gap)
	}
	if j2, _ := o.Job(next); j2.State != StateDone || j2.StartedAt < j.FinishedAt {
		t.Fatalf("queued scrub = %+v, want done, started after %d", j2, j.FinishedAt)
	}
}

// TestImmediateKindsBypassQueue: a crash submitted behind a queued scrub
// executes immediately — power loss does not wait for maintenance.
func TestImmediateKindsBypassQueue(t *testing.T) {
	p, o := newBIZA(t, 5)
	fill(t, p, 64)
	scrub, _ := o.Submit(KindScrub, Params{BlocksPerStep: 64, GapNanos: int64(sim.Millisecond)})
	crash, err := o.Submit(KindCrash, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if j, _ := o.Job(crash); j.State != StateDone {
		t.Fatalf("crash job = %+v, want done synchronously", j)
	}
	if !p.Crashed() {
		t.Fatal("platform not crashed")
	}
	_ = scrub // outcome after a crash is platform-defined; determinism is pinned by the replay test
	rec, _ := o.Submit(KindRecover, Params{})
	p.Eng.Run()
	if j, _ := o.Job(rec); j.State != StateDone {
		t.Fatalf("recover job = %+v, want done", j)
	}
	if p.Crashed() {
		t.Fatal("platform still crashed after recover job")
	}

	sf, _ := o.Submit(KindSetFailed, Params{Device: 1, Failed: true})
	if j, _ := o.Job(sf); j.State != StateDone {
		t.Fatalf("set-failed job = %+v", j)
	}
	if !p.BIZA.Degraded() {
		t.Fatal("array not degraded after set-failed job")
	}
}

// TestImmediateKindDoesNotAdvanceQueue is the regression test for the
// serial-queue bug: an immediate kind submitted while a paced job is
// executing must not free the running slot, or the next queued replace
// starts while the first is still rebuilding.
func TestImmediateKindDoesNotAdvanceQueue(t *testing.T) {
	p, o := newBIZA(t, 8)
	fill(t, p, 256)
	gap := int64(sim.Millisecond)
	id1, _ := o.Submit(KindReplace, Params{Device: 0, StripesPerStep: 1, StepGapNanos: gap})
	id2, _ := o.Submit(KindReplace, Params{Device: 1, StripesPerStep: 1, StepGapNanos: gap})
	p.Eng.RunUntil(p.Eng.Now() + 10*sim.Microsecond)
	if j, _ := o.Job(id1); j.State != StateRunning {
		t.Fatalf("job %d = %s before the immediate, want running", id1, j.State)
	}
	sf, _ := o.Submit(KindSetFailed, Params{Device: 2, Failed: false})
	if j, _ := o.Job(sf); j.State != StateDone || j.StartedAt != j.FinishedAt {
		t.Fatalf("set-failed job = %+v, want done at submit", j)
	}
	j1, _ := o.Job(id1)
	j2, _ := o.Job(id2)
	if j1.State != StateRunning || j2.State != StatePending {
		t.Fatalf("after immediate: job %d %s, job %d %s; want running, pending", id1, j1.State, id2, j2.State)
	}
	p.Eng.Run()
	j1, _ = o.Job(id1)
	j2, _ = o.Job(id2)
	if j1.State != StateDone || j2.State != StateDone || j2.StartedAt < j1.FinishedAt {
		t.Fatalf("final: job1 %+v job2 %+v, want both done, serialized", j1, j2)
	}
}

// TestCrashFailsExecutingAndQueuedJobs: a crash kills the executing job's
// in-flight I/O, so that job fails rather than holding the queue forever,
// queued maintenance fails as it reaches a crashed array, and the recover
// job behind them still runs.
func TestCrashFailsExecutingAndQueuedJobs(t *testing.T) {
	p, o := newBIZA(t, 9)
	fill(t, p, 64)
	scrub, _ := o.Submit(KindScrub, Params{BlocksPerStep: 64, GapNanos: int64(sim.Millisecond)})
	queued, _ := o.Submit(KindReplace, Params{Device: 0})
	p.Eng.RunUntil(p.Eng.Now() + 3*sim.Millisecond)
	if _, err := o.Submit(KindCrash, Params{}); err != nil {
		t.Fatal(err)
	}
	rec, _ := o.Submit(KindRecover, Params{})
	p.Eng.Run()
	for _, id := range []uint64{scrub, queued} {
		if j, _ := o.Job(id); j.State != StateFailed || !errors.Is(o.Err(id), storerr.ErrCrashed) {
			t.Fatalf("job %d = %+v (err %v), want failed with ErrCrashed", id, j, o.Err(id))
		}
	}
	if j, _ := o.Job(rec); j.State != StateDone || p.Crashed() {
		t.Fatalf("recover job = %+v (crashed=%v), want done", j, p.Crashed())
	}
	if p.Replacements() != 0 {
		t.Fatalf("queued replace ran on a crashed array")
	}
}

func TestOrchestratorErrorSentinels(t *testing.T) {
	p, o := newBIZA(t, 6)
	if _, err := o.Submit(Kind("mystery"), Params{}); !errors.Is(err, storerr.ErrBadArgument) {
		t.Fatalf("unknown kind: err = %v, want ErrBadArgument", err)
	}
	if _, err := o.Submit("", Params{}); !errors.Is(err, storerr.ErrBadArgument) {
		t.Fatalf("empty kind: err = %v, want ErrBadArgument", err)
	}
	if jobs := o.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused commands left job records: %+v", jobs)
	}
	if _, ok := o.Job(1); ok {
		t.Fatal("job 1 exists before any submit")
	}
	// An accepted job whose operation fails carries the sentinel's text in
	// its record and its identity in Err.
	id, _ := o.Submit(KindReplace, Params{Device: 9})
	p.Eng.Run()
	if j, _ := o.Job(id); j.State != StateFailed || !strings.Contains(j.Err, storerr.ErrNotFound.Error()) {
		t.Fatalf("replace of member 9 = %+v, want failed/not-found", j)
	}
	if err := o.Err(id); !errors.Is(err, storerr.ErrNotFound) {
		t.Fatalf("Err = %v, want ErrNotFound", err)
	}
}

// TestJournalReplayBitIdentical is the acceptance test for the journal: a
// run whose commands the driver submits at virtual times of its choosing,
// in the middle of a foreground workload, is replayed from its journal on
// a fresh array, and every job record — ids, states, progress, virtual
// timestamps — is byte-identical.
func TestJournalReplayBitIdentical(t *testing.T) {
	schedule := func(p *stack.Platform) {
		// Foreground workload pinned to virtual times so both runs see
		// identical simulation state around the submissions.
		for i := 0; i < 400; i++ {
			i := i
			p.Eng.At(sim.Time(i)*20*sim.Microsecond, func() {
				p.Dev.Write(int64(i%256), 1, nil, nil)
			})
		}
	}

	// Live run: commands submitted at driver-chosen virtual boundaries.
	live, liveOrc := newBIZA(t, 42)
	schedule(live)
	submit := func(cmds ...Command) {
		for _, c := range cmds {
			if _, err := liveOrc.Submit(c.Kind, c.Params); err != nil {
				t.Fatal(err)
			}
		}
	}
	live.Eng.RunUntil(2 * sim.Millisecond)
	submit(Command{Kind: KindReplace, Params: Params{Device: 1, StripesPerStep: 2, StepGapNanos: 100_000}})
	live.Eng.RunUntil(4 * sim.Millisecond)
	submit(Command{Kind: KindScrub, Params: Params{BlocksPerStep: 4096}},
		Command{Kind: KindSetFailed, Params: Params{Device: 2, Failed: true}})
	live.Eng.RunUntil(6 * sim.Millisecond)
	submit(Command{Kind: KindSetFailed, Params: Params{Device: 2}},
		Command{Kind: KindReplace, Params: Params{Device: 0, StripesPerStep: 4}})
	live.Eng.Run()

	journal := liveOrc.Journal()
	if len(journal) != 5 {
		t.Fatalf("journal has %d entries, want 5", len(journal))
	}
	for _, j := range liveOrc.Jobs() {
		if j.State != StateDone {
			t.Fatalf("job %+v, want done", j)
		}
	}
	liveJobs, err := json.Marshal(liveOrc.Jobs())
	if err != nil {
		t.Fatal(err)
	}

	// Replay: fresh identical array, commands resubmitted at their
	// journaled virtual times.
	replay, replayOrc := newBIZA(t, 42)
	schedule(replay)
	for _, e := range journal {
		replay.Eng.RunUntil(sim.Time(e.At))
		if _, err := replayOrc.Submit(e.Cmd.Kind, e.Cmd.Params); err != nil {
			t.Fatalf("replay submit %+v: %v", e.Cmd, err)
		}
	}
	replay.Eng.Run()
	replayJobs, err := json.Marshal(replayOrc.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJobs, replayJobs) {
		t.Fatalf("replay diverged:\nlive:   %s\nreplay: %s", liveJobs, replayJobs)
	}
	if live.Replacements() != replay.Replacements() || live.Replacements() != 2 {
		t.Fatalf("replacements: live %d replay %d, want 2 each", live.Replacements(), replay.Replacements())
	}
	rj, err := json.Marshal(replayOrc.Journal())
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(journal)
	if !bytes.Equal(lj, rj) {
		t.Fatalf("journals diverged:\nlive:   %s\nreplay: %s", lj, rj)
	}
}
