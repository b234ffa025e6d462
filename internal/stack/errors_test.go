package stack

import (
	"errors"
	"testing"

	"biza/internal/core"
	"biza/internal/storerr"
)

// TestStackErrorSentinels pins the errors.Is contract of the platform's
// mutating surface (biza.Array's administrative methods return them).
func TestStackErrorSentinels(t *testing.T) {
	raizn, err := New(KindRAIZN, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := raizn.Crash(); !errors.Is(err, storerr.ErrNotSupported) {
		t.Fatalf("RAIZN crash: err = %v, want ErrNotSupported", err)
	}
	var rerr error
	raizn.Recover(func(e error) { rerr = e })
	raizn.Eng.Run()
	if !errors.Is(rerr, storerr.ErrNotSupported) {
		t.Fatalf("RAIZN recover: err = %v, want ErrNotSupported", rerr)
	}
	raizn.ReplaceDevicePaced(0, core.RebuildControl{}, func(e error) { rerr = e })
	raizn.Eng.Run()
	if !errors.Is(rerr, storerr.ErrNotSupported) {
		t.Fatalf("RAIZN replace: err = %v, want ErrNotSupported", rerr)
	}

	biza, err := New(KindBIZA, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var perr error
	biza.Recover(func(e error) { perr = e })
	biza.Eng.Run()
	if !errors.Is(perr, storerr.ErrWrongState) {
		t.Fatalf("recover uncrashed: err = %v, want ErrWrongState", perr)
	}
	if err := biza.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := biza.Crash(); !errors.Is(err, storerr.ErrWrongState) {
		t.Fatalf("double crash: err = %v, want ErrWrongState", err)
	}
	biza.Recover(func(e error) { perr = e })
	biza.Eng.Run()
	if perr != nil {
		t.Fatalf("recover: %v", perr)
	}
	if err := biza.BIZA.SetDeviceFailed(99, true); !errors.Is(err, storerr.ErrNotFound) {
		t.Fatalf("set-failed out of range: err = %v, want ErrNotFound", err)
	}
	biza.ReplaceDevicePaced(99, core.RebuildControl{}, func(e error) { perr = e })
	biza.Eng.Run()
	if !errors.Is(perr, storerr.ErrNotFound) {
		t.Fatalf("replace out of range: err = %v, want ErrNotFound", perr)
	}
}

// TestReplaceDevicePacedRebuilds: a paced rebuild makes the same
// progress as an unpaced one, reports monotone progress, and takes
// longer in virtual time (the pacing gaps are real).
func TestReplaceDevicePacedRebuilds(t *testing.T) {
	run := func(ctl core.RebuildControl) (elapsed int64, steps int) {
		p, err := New(KindBIZA, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 4096)
		for i := 0; i < 256; i++ {
			p.Dev.Write(int64(i), 1, payload, nil)
		}
		p.Eng.Run()
		start := p.Eng.Now()
		lastDone := 0
		ctl.OnProgress = func(done, total int) {
			if done < lastDone || done > total {
				t.Fatalf("progress went backwards: %d/%d after %d", done, total, lastDone)
			}
			lastDone = done
			steps++
		}
		var rerr error
		finished := false
		p.ReplaceDevicePaced(1, ctl, func(e error) { rerr = e; finished = true })
		p.Eng.Run()
		if !finished || rerr != nil {
			t.Fatalf("rebuild finished=%v err=%v", finished, rerr)
		}
		if p.Replacements() != 1 {
			t.Fatalf("replacements = %d, want 1", p.Replacements())
		}
		return int64(p.Eng.Now() - start), steps
	}
	fastT, fastSteps := run(core.RebuildControl{})
	if fastSteps != 1 {
		t.Fatalf("unpaced rebuild took %d steps, want 1", fastSteps)
	}
	slowT, slowSteps := run(core.RebuildControl{StripesPerStep: 2, StepGap: 500 * 1000})
	if slowSteps < 2 {
		t.Fatalf("paced rebuild took %d steps, want several", slowSteps)
	}
	if slowT <= fastT {
		t.Fatalf("paced rebuild (%dns) not slower than unpaced (%dns)", slowT, fastT)
	}
}
