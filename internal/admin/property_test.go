package admin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"biza/internal/sim"
	"biza/internal/stack"
)

// immediate reports whether k executes at submit, beside the queue.
func immediate(k Kind) bool { return k == KindCrash || k == KindSetFailed }

// nextStates is the job lifecycle as a relation: every observed state
// change must be one of these edges, and terminal states have none.
var nextStates = map[State][]State{
	StatePending: {StateRunning, StateDone, StateFailed},
	StateRunning: {StateDone, StateFailed},
}

// queueChecker asserts the orchestrator's structural invariants against
// what it last saw. It runs after every command and, through the
// orchestrator's change hook, after every job transition or progress
// step — the only instants at which the checked state can move.
type queueChecker struct {
	o    *Orchestrator
	seen map[uint64]Job
}

func (c *queueChecker) check() error {
	var holder uint64
	for _, j := range c.o.Jobs() {
		if j.State == StateRunning {
			if immediate(j.Kind) {
				return fmt.Errorf("immediate job %d observed %s", j.ID, j.State)
			}
			if holder != 0 {
				return fmt.Errorf("jobs %d and %d both hold the running slot", holder, j.ID)
			}
			holder = j.ID
		}
		prev, known := c.seen[j.ID]
		c.seen[j.ID] = j
		if !known {
			continue
		}
		if prev.State != j.State {
			ok := false
			for _, s := range nextStates[prev.State] {
				ok = ok || s == j.State
			}
			if !ok {
				return fmt.Errorf("job %d moved %s -> %s", j.ID, prev.State, j.State)
			}
		}
		if prev.State.Terminal() && prev != j {
			return fmt.Errorf("job %d changed after finishing: %+v -> %+v", j.ID, prev, j)
		}
		if (prev.StartedAt != 0 && j.StartedAt != prev.StartedAt) || j.SubmittedAt != prev.SubmittedAt {
			return fmt.Errorf("job %d timestamps rewritten: %+v -> %+v", j.ID, prev, j)
		}
	}
	if holder != c.o.running {
		return fmt.Errorf("running slot holds %d, job states say %d", c.o.running, holder)
	}
	return nil
}

// serialized asserts that queued-kind jobs executed strictly one after
// another in submission order.
func serialized(jobs []Job) error {
	var prev *Job
	for i := range jobs {
		j := &jobs[i]
		if immediate(j.Kind) || j.StartedAt == 0 {
			continue
		}
		if prev != nil && (!prev.State.Terminal() || j.StartedAt < prev.FinishedAt) {
			return fmt.Errorf("job %d started at %d while job %d was %s (finished %d)",
				j.ID, j.StartedAt, prev.ID, prev.State, prev.FinishedAt)
		}
		prev = j
	}
	return nil
}

// propertyArray builds the array every run of one seed starts from: same
// platform seed, same preloaded blocks.
func propertyArray(t *testing.T, seed uint64) (*stack.Platform, *Orchestrator) {
	p, o := newBIZA(t, seed)
	fill(t, p, 192)
	return p, o
}

// randomCommand draws a submit of any of the five kinds (paced kinds
// weighted up so the queue is usually busy), immediates included.
func randomCommand(rng *sim.RNG) Command {
	kinds := []Kind{KindReplace, KindReplace, KindScrub, KindScrub,
		KindCrash, KindRecover, KindRecover, KindSetFailed, KindSetFailed}
	gaps := []int64{0, int64(20 * sim.Microsecond), int64(200 * sim.Microsecond)}
	c := Command{Kind: kinds[rng.Intn(len(kinds))]}
	switch c.Kind {
	case KindReplace:
		c.Params = Params{Device: rng.Intn(4), StripesPerStep: 1 + rng.Intn(4), StepGapNanos: gaps[rng.Intn(len(gaps))]}
	case KindScrub:
		c.Params = Params{BlocksPerStep: 512 << rng.Intn(4), GapNanos: gaps[rng.Intn(len(gaps))]}
	case KindSetFailed:
		c.Params = Params{Device: rng.Intn(4), Failed: rng.Intn(2) == 0}
	}
	return c
}

// TestCommandSequenceProperties drives random submit sequences over all
// five kinds, immediates included, into the orchestrator and asserts, at
// every command and every change, that at most one queued job holds the
// running slot, that job states only move along lifecycle edges and
// finished records never change, that queued jobs ran serially in
// submission order, and that re-driving the journal on a fresh same-seed
// array reproduces the job records byte for byte.
func TestCommandSequenceProperties(t *testing.T) {
	cases := []struct {
		seed     uint64
		commands int
	}{
		{1, 40}, {2, 40}, {3, 40}, {5, 60}, {8, 60}, {13, 60},
		{21, 80}, {34, 80}, {55, 80}, {89, 120}, {144, 120}, {233, 120},
	}
	delays := []sim.Time{0, 5 * sim.Microsecond, 80 * sim.Microsecond, sim.Millisecond}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			live, o := propertyArray(t, tc.seed)
			chk := &queueChecker{o: o, seen: make(map[uint64]Job)}
			var broken error
			verify := func() {
				if err := chk.check(); err != nil && broken == nil {
					broken = err
				}
			}
			o.SetOnChange(verify)
			rng := sim.NewRNG(tc.seed)
			for i := 0; i < tc.commands; i++ {
				cmd := randomCommand(rng)
				if _, err := o.Submit(cmd.Kind, cmd.Params); err != nil {
					t.Fatalf("command %d (%+v): %v", i, cmd, err)
				}
				verify()
				live.Eng.RunUntil(live.Eng.Now() + delays[rng.Intn(len(delays))])
				verify()
				if broken != nil {
					t.Fatalf("after command %d (%+v): %v", i, cmd, broken)
				}
			}
			live.Eng.Run()
			verify()
			if broken != nil {
				t.Fatalf("draining: %v", broken)
			}
			if err := serialized(o.Jobs()); err != nil {
				t.Fatal(err)
			}

			replay, ro := propertyArray(t, tc.seed)
			for _, e := range o.Journal() {
				replay.Eng.RunUntil(sim.Time(e.At))
				ro.Submit(e.Cmd.Kind, e.Cmd.Params)
			}
			replay.Eng.Run()
			want, _ := json.Marshal(o.Jobs())
			got, _ := json.Marshal(ro.Jobs())
			if !bytes.Equal(want, got) {
				t.Fatalf("journal replay diverged:\nlive:   %s\nreplay: %s", want, got)
			}
		})
	}
}
