package sim

import (
	"errors"
	"testing"
)

func TestFanIn(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	tests := []struct {
		name      string
		run       func(f *FanIn) // the issuing loop, Seal included
		wantFires int
		wantErr   error
	}{
		{name: "fires once when the last part completes", run: func(f *FanIn) {
			f.Add(3)
			f.Seal()
			f.Done(nil)
			f.Done(nil)
			f.Done(nil)
		}, wantFires: 1},
		{name: "first error wins", run: func(f *FanIn) {
			f.Add(3)
			f.Seal()
			f.Done(nil)
			f.Done(errA)
			f.Done(errB)
		}, wantFires: 1, wantErr: errA},
		{name: "a part completing inside the issuing loop does not fire early", run: func(f *FanIn) {
			f.Add(1)
			f.Done(errA) // 1 -> 0 with siblings still to come
			f.Add(1)
			f.Done(nil)
			f.Seal()
		}, wantFires: 1, wantErr: errA},
		{name: "nothing issued never fires", run: func(f *FanIn) {
			if n := f.Seal(); n != 0 {
				t.Errorf("Seal() = %d, want 0", n)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			fires := 0
			var got error
			var f *FanIn
			f = NewFanIn(func(err error) {
				fires++
				got = err
				if !f.sealed {
					t.Error("fired before Seal")
				}
			})
			tc.run(f)
			if fires != tc.wantFires || got != tc.wantErr {
				t.Fatalf("fires=%d err=%v, want fires=%d err=%v", fires, got, tc.wantFires, tc.wantErr)
			}
		})
	}
}

func TestFanInNilFireAndDoubleDone(t *testing.T) {
	f := NewFanIn(nil)
	f.Add(1)
	f.Seal()
	f.Done(nil) // must not call a nil fire
	defer func() {
		if recover() == nil {
			t.Fatal("a part completing twice went unnoticed")
		}
	}()
	f.Done(nil)
}

func TestDeliverIsDeferred(t *testing.T) {
	eng := NewEngine()
	got := -1
	Deliver(eng, Microsecond, func(v int) { got = v }, 7)
	if got != -1 {
		t.Fatal("delivered before the call returned")
	}
	Deliver[int](eng, Microsecond, nil, 9)
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d, want 1: a nil done schedules nothing", eng.Pending())
	}
	eng.Run()
	if got != 7 || eng.Now() != Microsecond {
		t.Fatalf("got %d at %d, want 7 at %d", got, eng.Now(), Microsecond)
	}
}

// fanInRecord is a recycled request record as the engines write them: the
// fan-in embedded by value, its callbacks bound once.
type fanInRecord struct {
	f      FanIn
	fires  int
	err    error
	onPart func(error)
	onAll  func(error)
}

func newFanInRecord() *fanInRecord {
	r := &fanInRecord{}
	r.onPart, r.onAll = r.f.Done, r.all
	return r
}

func (r *fanInRecord) all(err error) { r.fires, r.err = r.fires+1, err }

// TestFanInReuseAllocFree: a fan-in embedded in a record is re-armed for
// request after request without allocating, and each arming starts clean —
// count, first error and seal of the previous request are gone.
func TestFanInReuseAllocFree(t *testing.T) {
	errA := errors.New("a")
	r := newFanInRecord()
	round := 0
	request := func() {
		r.f.Arm(r.onAll)
		r.f.Add(2)
		r.onPart(nil)
		if round%2 == 0 {
			r.onPart(errA)
		} else {
			r.onPart(nil)
		}
		r.f.Add(1)
		r.f.Seal()
		r.onPart(nil)
		round++
	}
	if allocs := testing.AllocsPerRun(100, request); allocs != 0 {
		t.Errorf("a request on a re-armed fan-in allocates %v objects, want 0", allocs)
	}
	if r.fires != round {
		t.Fatalf("%d requests fired %d times", round, r.fires)
	}
	request() // an odd round: no error, although the round before had one
	if r.err != nil {
		t.Fatalf("a re-armed fan-in reported %v, the error of the request before", r.err)
	}
}

func TestFanInArm(t *testing.T) {
	t.Run("fire may re-arm the fan-in it runs on", func(t *testing.T) {
		// What a record does that goes back to its free list before the
		// caller's callback runs, when that callback issues the next request.
		var f FanIn
		inner := 0
		f.Arm(func(error) {
			f.Arm(func(error) { inner++ })
			f.Add(1)
			f.Seal()
		})
		f.Add(1)
		f.Done(nil)
		if n := f.Seal(); n != 1 {
			t.Fatalf("Seal() = %d, want the 1 part of the request it sealed", n)
		}
		f.Done(nil)
		if inner != 1 {
			t.Fatalf("the request armed inside fire completed %d times, want 1", inner)
		}
	})
	t.Run("arming over outstanding parts panics", func(t *testing.T) {
		var f FanIn
		f.Arm(nil)
		f.Add(1)
		defer func() {
			if recover() == nil {
				t.Fatal("a fan-in with a part outstanding was re-armed")
			}
		}()
		f.Arm(nil)
	})
}
