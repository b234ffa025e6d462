// Package admin is the array's control plane: a deterministic job
// orchestrator that executes administrative operations — device
// replacement, paced scrubs, crash/recover cycles and member failures —
// against one array as paced virtual-time steps.
//
// Commands enter the simulation one way: Submit runs on the engine
// goroutine at a virtual time the simulation driver chooses. Every
// submitted command is recorded in a journal of (virtual time, sequence,
// command) entries, so a run can be replayed bit-identically by
// resubmitting the journal at the same virtual times on a fresh array.
//
// One Orchestrator serves one array and runs one job at a time in
// submission order; a rolling replacement is nothing more than submitting
// one replace job per member and letting the queue serialize them.
// Long-running kinds (replace, scrub) execute as paced steps with
// configurable step size and virtual-time gap — the rebuild-rate versus
// foreground-latency knob the `rolling` experiment sweeps. Crash and
// set-failed are immediate kinds: they model power cuts and member
// failures, which do not wait politely behind queued work, so Submit
// executes them inline, beside the queue: they never hold the running
// slot and never start the next queued job. A crash additionally fails
// the executing job (its in-flight I/O died with the host), and until a
// recover job runs every other queued kind fails with storerr.ErrCrashed.
package admin

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/core"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/storerr"
)

// Kind names a job type.
type Kind string

// Job kinds.
const (
	// KindReplace hot-swaps a member device and rebuilds redundancy,
	// paced by StripesPerStep/StepGapNanos.
	KindReplace Kind = "replace"
	// KindScrub reads the whole array space in paced steps, counting
	// unreadable ranges (BlocksPerStep/GapNanos).
	KindScrub Kind = "scrub"
	// KindCrash cuts power immediately (immediate kind: runs at submit,
	// ahead of any queued jobs — power loss does not queue).
	KindCrash Kind = "crash"
	// KindRecover rebuilds the array state from the surviving devices.
	KindRecover Kind = "recover"
	// KindSetFailed marks a member failed or healthy (immediate kind).
	KindSetFailed Kind = "set-failed"
)

// check refuses a kind that is not one of the above.
func (k Kind) check() error {
	switch k {
	case KindReplace, KindScrub, KindCrash, KindRecover, KindSetFailed:
		return nil
	}
	return fmt.Errorf("admin: unknown job kind %q: %w", k, storerr.ErrBadArgument)
}

// Params carries the union of job parameters; each kind reads its own
// subset and ignores the rest.
type Params struct {
	// Device is the member index (replace, set-failed).
	Device int `json:"device,omitempty"`
	// Failed is the target state for set-failed.
	Failed bool `json:"failed,omitempty"`
	// StripesPerStep bounds concurrent stripe dissolutions per rebuild
	// step (replace; 0 = unpaced).
	StripesPerStep int `json:"stripes_per_step,omitempty"`
	// StepGapNanos idles the rebuild between steps (replace).
	StepGapNanos int64 `json:"step_gap_nanos,omitempty"`
	// BlocksPerStep sizes one scrub read (scrub; default 1024).
	BlocksPerStep int `json:"blocks_per_step,omitempty"`
	// GapNanos idles the scrub between steps (scrub).
	GapNanos int64 `json:"gap_nanos,omitempty"`
}

// State is a job's lifecycle position.
type State string

// Job states: pending → running → done|failed.
const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed
}

// Progress is a job's step counter.
type Progress struct {
	Done   int64  `json:"done"`
	Total  int64  `json:"total"`
	Detail string `json:"detail,omitempty"`
}

// Job is the typed operation record. All times are virtual nanoseconds.
type Job struct {
	ID          uint64   `json:"id"`
	Kind        Kind     `json:"kind"`
	Params      Params   `json:"params"`
	State       State    `json:"state"`
	Progress    Progress `json:"progress"`
	Err         string   `json:"error,omitempty"`
	SubmittedAt int64    `json:"submitted_at_nanos"`
	StartedAt   int64    `json:"started_at_nanos,omitempty"`
	FinishedAt  int64    `json:"finished_at_nanos,omitempty"`
}

// Command is one submitted job request.
type Command struct {
	Kind   Kind   `json:"kind,omitempty"`
	Params Params `json:"params,omitempty"`
}

// JournalEntry records one submitted command at its virtual time; Seq
// breaks ties between commands submitted at the same instant.
type JournalEntry struct {
	At  int64   `json:"at_nanos"`
	Seq uint64  `json:"seq"`
	Cmd Command `json:"cmd"`
}

// jobRun pairs a job's record with the typed error it finished with.
type jobRun struct {
	job Job
	err error
}

// Orchestrator executes admin jobs against one platform, one at a time,
// in submission order. Every method must run on the platform's engine
// goroutine (simulation discipline).
type Orchestrator struct {
	eng *sim.Engine
	p   *stack.Platform

	jobs    []*jobRun // by id - 1: ids count submissions from 1
	queue   []uint64  // pending, awaiting execution
	running uint64    // id of the executing job, 0 = none

	journal []JournalEntry

	onChange func()
}

// New returns an orchestrator for the platform.
func New(p *stack.Platform) *Orchestrator {
	return &Orchestrator{eng: p.Eng, p: p}
}

// SetOnChange registers a hook fired after every job state change (job
// transitions, progress steps). Runs on the engine goroutine.
func (o *Orchestrator) SetOnChange(f func()) { o.onChange = f }

// Journal returns the submitted-command journal (do not mutate).
func (o *Orchestrator) Journal() []JournalEntry { return o.journal }

// lookup returns the job with the given id, nil for an unknown one.
func (o *Orchestrator) lookup(id uint64) *jobRun {
	if id == 0 || id > uint64(len(o.jobs)) {
		return nil
	}
	return o.jobs[id-1]
}

// Job returns a copy of one job's record.
func (o *Orchestrator) Job(id uint64) (Job, bool) {
	if r := o.lookup(id); r != nil {
		return r.job, true
	}
	return Job{}, false
}

// Jobs returns copies of all job records in submission order.
func (o *Orchestrator) Jobs() []Job {
	jobs := make([]Job, len(o.jobs))
	for i, r := range o.jobs {
		jobs[i] = r.job
	}
	return jobs
}

// Err returns the typed error a failed job finished with — unlike the
// string in Job.Err it preserves storerr identities for errors.Is. Nil
// for successful or unfinished jobs.
func (o *Orchestrator) Err(id uint64) error {
	if r := o.lookup(id); r != nil {
		return r.err
	}
	return nil
}

// changed fires the change hook.
func (o *Orchestrator) changed() {
	if o.onChange != nil {
		o.onChange()
	}
}

// Submit journals a command, then queues (or, for immediate kinds,
// executes) a new job and returns its id. Must run on the engine
// goroutine; its effects interleave with simulation events exactly as if
// scheduled there. The job's eventual success or failure is reported in
// its State/Err fields; Submit itself errors only on an unknown kind.
func (o *Orchestrator) Submit(kind Kind, p Params) (uint64, error) {
	o.journal = append(o.journal, JournalEntry{
		At: int64(o.eng.Now()), Seq: uint64(len(o.journal)) + 1,
		Cmd: Command{Kind: kind, Params: p},
	})
	if err := kind.check(); err != nil {
		return 0, err
	}
	id := uint64(len(o.jobs)) + 1
	r := &jobRun{job: Job{
		ID: id, Kind: kind, Params: p,
		State: StatePending, SubmittedAt: int64(o.eng.Now()),
	}}
	o.jobs = append(o.jobs, r)
	if kind == KindCrash || kind == KindSetFailed {
		// Immediate kinds: power cuts and member failures take effect
		// now, not after queued maintenance drains.
		o.execImmediate(r)
		return id, nil
	}
	o.queue = append(o.queue, id)
	o.changed()
	o.kick()
	return id, nil
}

// kick starts the next runnable queued job if none is executing. While
// the array is crashed only a recover job can do anything useful — any
// other kind would issue I/O into dead driver queues and hold the queue
// forever — so those fail as they reach the head.
func (o *Orchestrator) kick() {
	for o.running == 0 && len(o.queue) > 0 {
		id := o.queue[0]
		o.queue = o.queue[1:]
		r := o.lookup(id)
		if o.p.Crashed() && r.job.Kind != KindRecover {
			o.settle(r, fmt.Errorf("admin: job %d: %w", id, storerr.ErrCrashed))
			o.changed()
			continue
		}
		o.running = id
		r.job.State = StateRunning
		r.job.StartedAt = int64(o.eng.Now())
		o.changed()
		o.exec(r)
		return
	}
}

// settle records a job's terminal state and finish time.
func (o *Orchestrator) settle(r *jobRun, err error) {
	r.job.FinishedAt = int64(o.eng.Now())
	r.err = err
	r.job.State = StateDone
	if err != nil {
		r.job.State = StateFailed
		r.job.Err = err.Error()
	}
}

// finish retires the executing job and starts the next one. A job a crash
// already aborted is ignored: its late callbacks must not free the
// running slot a successor now holds.
func (o *Orchestrator) finish(r *jobRun, err error) {
	if r.job.State.Terminal() {
		return
	}
	o.settle(r, err)
	o.running = 0
	o.changed()
	o.kick()
}

// progress records a paced job's step counter. Like finish and gate it
// drops the late callbacks of a job a crash already failed.
func (o *Orchestrator) progress(r *jobRun, p Progress) {
	if r.job.State.Terminal() {
		return
	}
	r.job.Progress = p
	o.changed()
}

// gate is the step boundary for paced jobs: the continuation of a job a
// crash aborted is dropped.
func (o *Orchestrator) gate(r *jobRun, cont func()) {
	if !r.job.State.Terminal() {
		cont()
	}
}

// execImmediate runs crash/set-failed synchronously at submit time.
// Crash must kill in-flight commands, so it cannot be an event behind
// them in the queue. Immediate jobs happen beside the queue, not in it:
// they never occupy the running slot and never start the next queued job
// — with one exception that is the crash's own semantics: the executing
// job's in-flight I/O died with the host, so a successful crash fails it
// and lets the queue move on (to the recover job, typically).
func (o *Orchestrator) execImmediate(r *jobRun) {
	r.job.StartedAt = int64(o.eng.Now())
	var err error
	switch r.job.Kind {
	case KindCrash:
		err = o.p.Crash()
	case KindSetFailed:
		if o.p.BIZA == nil {
			err = fmt.Errorf("admin: degraded mode requires a BIZA platform: %w", storerr.ErrNotSupported)
		} else {
			err = o.p.BIZA.SetDeviceFailed(r.job.Params.Device, r.job.Params.Failed)
		}
	}
	r.job.Progress = Progress{Done: 1, Total: 1}
	o.settle(r, err)
	o.changed()
	if run := o.lookup(o.running); run != nil && r.job.Kind == KindCrash && err == nil {
		o.finish(run, fmt.Errorf("admin: job %d interrupted by crash job %d: %w", run.job.ID, r.job.ID, storerr.ErrCrashed))
	}
}

func (o *Orchestrator) exec(r *jobRun) {
	switch r.job.Kind {
	case KindReplace:
		o.execReplace(r)
	case KindScrub:
		o.execScrub(r)
	case KindRecover:
		o.p.Recover(func(err error) { o.finish(r, err) })
	}
}

func (o *Orchestrator) execReplace(r *jobRun) {
	p := r.job.Params
	ctl := core.RebuildControl{
		StripesPerStep: p.StripesPerStep,
		StepGap:        sim.Time(p.StepGapNanos),
		OnProgress: func(done, total int) {
			o.progress(r, Progress{Done: int64(done), Total: int64(total), Detail: "stripes"})
		},
		Gate: func(next func()) { o.gate(r, next) },
	}
	o.p.ReplaceDevicePaced(r.job.Params.Device, ctl, func(err error) { o.finish(r, err) })
}

func (o *Orchestrator) execScrub(r *jobRun) {
	dev := o.p.Dev
	if dev == nil {
		o.finish(r, fmt.Errorf("admin: %s has no block front-end to scrub: %w", o.p.Kind, storerr.ErrNotSupported))
		return
	}
	per := r.job.Params.BlocksPerStep
	if per <= 0 {
		per = 1024
	}
	gap := sim.Time(r.job.Params.GapNanos)
	total := dev.Blocks()
	r.job.Progress = Progress{Total: total, Detail: "blocks"}
	var lba int64
	var unreadable int64
	var step func()
	step = func() {
		n := per
		if rem := total - lba; int64(n) > rem {
			n = int(rem)
		}
		at := lba
		dev.Read(at, n, func(res blockdev.ReadResult) {
			if res.Err != nil {
				unreadable += int64(n)
			}
			lba = at + int64(n)
			o.progress(r, Progress{Done: lba, Total: total, Detail: "blocks"})
			if lba >= total {
				if unreadable > 0 {
					o.finish(r, fmt.Errorf("admin: scrub found %d unreadable blocks: %w", unreadable, storerr.ErrUnreadable))
				} else {
					o.finish(r, nil)
				}
				return
			}
			next := func() { o.gate(r, step) }
			if gap > 0 {
				o.eng.After(gap, next)
			} else {
				next()
			}
		})
	}
	step()
}
