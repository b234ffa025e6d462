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
