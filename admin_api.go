package biza

import "biza/internal/admin"

// Job is a typed admin operation record; see internal/admin for the
// lifecycle (pending → running → done|failed).
type Job = admin.Job

// JobKind names an admin job type.
type JobKind = admin.Kind

// Admin job kinds.
const (
	// JobReplace hot-swaps a member device and rebuilds redundancy,
	// optionally paced (JobParams.StripesPerStep / StepGapNanos).
	JobReplace = admin.KindReplace
	// JobScrub reads the whole array in paced steps, counting unreadable
	// ranges.
	JobScrub = admin.KindScrub
	// JobCrash cuts power immediately (executes at submit, not queued).
	JobCrash = admin.KindCrash
	// JobRecover rebuilds array state from the surviving devices.
	JobRecover = admin.KindRecover
	// JobSetFailed marks a member failed or healthy (executes at submit).
	JobSetFailed = admin.KindSetFailed
)

// JobParams carries the union of job parameters.
type JobParams = admin.Params

// JobState is a job's lifecycle position.
type JobState = admin.State

// Job states.
const (
	JobPending = admin.StatePending
	JobRunning = admin.StateRunning
	JobDone    = admin.StateDone
	JobFailed  = admin.StateFailed
)

// Admin is the array's control plane: every administrative operation —
// device replacement, scrubs, crash/recover, member failures — is a typed
// Job executed by a deterministic per-array orchestrator, one at a time,
// in submission order. The synchronous helpers below submit a job and
// drive the simulation until it finishes; event-driven callers
// use Submit and drive the engine themselves. Like the array, it belongs
// to the goroutine that drives the simulation.
type Admin struct {
	a   *Array
	orc *admin.Orchestrator
}

// Admin returns the array's admin control plane, creating it on first
// use.
func (a *Array) Admin() *Admin {
	if a.adm == nil {
		a.adm = &Admin{a: a, orc: admin.New(a.p)}
	}
	return a.adm
}

// Submit queues a job (or executes it, for the immediate kinds JobCrash
// and JobSetFailed) and returns its id without driving the simulation.
// The job's outcome lands in its State/Err fields as the engine runs.
func (ad *Admin) Submit(kind JobKind, p JobParams) (uint64, error) {
	return ad.orc.Submit(kind, p)
}

// Job returns a copy of one job's record.
func (ad *Admin) Job(id uint64) (Job, bool) { return ad.orc.Job(id) }

// Jobs returns copies of all job records in submission order.
func (ad *Admin) Jobs() []Job { return ad.orc.Jobs() }

// run submits a job and drives the simulation until the queue drains,
// returning the job's typed error.
func (ad *Admin) run(kind JobKind, p JobParams) error {
	id, err := ad.orc.Submit(kind, p)
	if err != nil {
		return err
	}
	ad.a.p.Eng.Run()
	if j, ok := ad.orc.Job(id); !ok || !j.State.Terminal() {
		return ErrIncomplete
	}
	return ad.orc.Err(id)
}

// Crash submits an immediate power-cut job: in-flight commands die with
// their driver queues and unacknowledged write-buffer contents are dropped
// (acknowledged ZRWA blocks harden, PLP-style); pending simulation events
// are NOT drained first (a power cut does not wait for outstanding work).
// I/O fails with ErrCrashed until Recover succeeds. BIZA kinds only.
func (ad *Admin) Crash() error {
	id, err := ad.orc.Submit(JobCrash, JobParams{})
	if err != nil {
		return err
	}
	return ad.orc.Err(id) // immediate kinds finish synchronously
}

// SetDeviceFailed submits an immediate degraded-mode toggle for member
// dev (BIZA kinds only).
func (ad *Admin) SetDeviceFailed(dev int, failed bool) error {
	id, err := ad.orc.Submit(JobSetFailed, JobParams{Device: dev, Failed: failed})
	if err != nil {
		return err
	}
	return ad.orc.Err(id)
}

// Recover submits a recovery job and drives the simulation until the
// OOB scan completes: fresh driver queues attach to the surviving devices
// and the mapping tables are rebuilt from the per-block OOB records. All
// acknowledged data is readable afterwards.
func (ad *Admin) Recover() error { return ad.run(JobRecover, JobParams{}) }

// ReplaceDevicePaced submits a device-replacement job — a failed member
// hot-swapped for a fresh device — and drives the simulation until
// redundancy is restored (BIZA kinds only). stripesPerStep stripes
// dissolve per step with stepGapNanos of virtual idle between steps — the
// rebuild-rate versus foreground-latency knob; zeros do not throttle.
func (ad *Admin) ReplaceDevicePaced(dev, stripesPerStep int, stepGapNanos int64) error {
	return ad.run(JobReplace, JobParams{
		Device: dev, StripesPerStep: stripesPerStep, StepGapNanos: stepGapNanos,
	})
}

// Scrub reads the whole array in paced steps (blocksPerStep blocks per
// read, gapNanos of virtual idle between reads), driving the simulation
// to completion; unreadable ranges fail the job.
func (ad *Admin) Scrub(blocksPerStep int, gapNanos int64) error {
	return ad.run(JobScrub, JobParams{BlocksPerStep: blocksPerStep, GapNanos: gapNanos})
}
