package sim

// FanIn joins the completions of the parts one request was split into: it
// counts them, keeps the first error, and fires once when the last part is
// in — but never before Seal, so a part that completes inside the loop
// still issuing its siblings cannot end the request early.
//
//	f := sim.NewFanIn(func(err error) { done(Result{Err: err}) })
//	for ... {
//		f.Add(1)
//		issue(part, func(r Result) { f.Done(r.Err) })
//	}
//	if f.Seal() == 0 {
//		// nothing was issued: the caller's own case (complete now, complete
//		// after a delay, skip straight to the next step)
//	}
//
// A recycled request record embeds its FanIn by value and Arms it once per
// request with a callback bound once per record; NewFanIn is for the paths
// that run once per victim or per reset and keep their closures. fire may
// recycle and re-arm the fan-in it was called from: nothing here touches f
// after calling it.
type FanIn struct {
	fire     func(error)
	firstErr error
	issued   int
	left     int
	sealed   bool
}

// NewFanIn returns an open fan-in that calls fire with the first error any
// part reported (nil if none did). fire may be nil.
func NewFanIn(fire func(err error)) *FanIn { return &FanIn{fire: fire} }

// Arm opens f, the zero value or a fan-in whose parts are all in, for the
// parts of another request.
func (f *FanIn) Arm(fire func(err error)) {
	if f.left > 0 {
		panic("sim: fan-in armed with parts outstanding")
	}
	*f = FanIn{fire: fire}
}

// Add announces n more parts.
func (f *FanIn) Add(n int) {
	f.issued += n
	f.left += n
}

// Done completes one part.
func (f *FanIn) Done(err error) {
	if err != nil && f.firstErr == nil {
		f.firstErr = err
	}
	f.left--
	if f.left < 0 {
		panic("sim: fan-in part completed twice")
	}
	if f.left == 0 && f.sealed {
		f.complete()
	}
}

// Seal ends the issuing loop and reports how many parts it announced. With
// none, the fan-in never fires.
func (f *FanIn) Seal() int {
	f.sealed = true
	issued := f.issued
	if issued > 0 && f.left == 0 {
		f.complete()
	}
	return issued
}

func (f *FanIn) complete() {
	if f.fire != nil {
		f.fire(f.firstErr)
	}
}

// Deliver hands r to done d from now: a completion never reaches its
// caller before the call that asked for it has returned. A nil done
// schedules nothing.
func Deliver[R any](e *Engine, d Time, done func(R), r R) {
	if done != nil {
		e.After(d, func() { done(r) })
	}
}
