package admin

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"biza/internal/storerr"
)

// Gateway is the HTTP-facing half of the injection boundary. Handlers
// (any goroutine) stage commands and read job snapshots here; the
// simulation driver calls Drain on the engine goroutine to move staged
// commands into the orchestrator at a virtual-time boundary of its
// choosing. Job ids are assigned at staging time from the orchestrator's
// allocator, so a submitter gets its id back immediately — before the
// command has crossed into the simulation — and can poll it.
//
// Gateway implements the ops server's JobSink contract structurally
// (byte-JSON in, byte-JSON out), keeping ops free of an admin import.
type Gateway struct {
	orc *Orchestrator

	mu     sync.Mutex
	staged []Command
	// pending holds synthesized "pending" views for jobs staged but not
	// yet injected, so GET /v1/jobs/{id} works in the staging window.
	pending map[uint64]Job
}

// NewGateway returns a gateway feeding the orchestrator.
func NewGateway(orc *Orchestrator) *Gateway {
	return &Gateway{orc: orc, pending: make(map[uint64]Job)}
}

// SubmitJob stages a submit command. kind is the job kind; params is a
// JSON object matching admin.Params (empty or nil for defaults). The
// returned id is live immediately for status polls. Implements
// ops.JobSink.
func (g *Gateway) SubmitJob(kind string, params []byte) (uint64, error) {
	if err := Kind(kind).check(); err != nil {
		return 0, err
	}
	var p Params
	if len(params) > 0 {
		if err := json.Unmarshal(params, &p); err != nil {
			return 0, fmt.Errorf("admin: bad params: %v: %w", err, storerr.ErrBadArgument)
		}
	}
	id := atomic.AddUint64(g.orc.idAllocator(), 1)
	g.mu.Lock()
	g.staged = append(g.staged, Command{Verb: VerbSubmit, JobID: id, Kind: Kind(kind), Params: p})
	g.pending[id] = Job{ID: id, Kind: Kind(kind), Params: p, State: StatePending}
	g.mu.Unlock()
	return id, nil
}

// stageVerb stages a cancel/pause/resume for a known job id.
func (g *Gateway) stageVerb(verb string, id uint64) error {
	g.mu.Lock()
	_, known := g.pending[id]
	g.mu.Unlock()
	if !known {
		if _, ok := g.orc.Job(id); !ok {
			return fmt.Errorf("admin: job %d: %w", id, storerr.ErrNotFound)
		}
	}
	g.mu.Lock()
	g.staged = append(g.staged, Command{Verb: verb, JobID: id})
	g.mu.Unlock()
	return nil
}

// CancelJob stages a cancel. Implements ops.JobSink.
func (g *Gateway) CancelJob(id uint64) error { return g.stageVerb(VerbCancel, id) }

// PauseJob stages a pause. Implements ops.JobSink.
func (g *Gateway) PauseJob(id uint64) error { return g.stageVerb(VerbPause, id) }

// ResumeJob stages a resume. Implements ops.JobSink.
func (g *Gateway) ResumeJob(id uint64) error { return g.stageVerb(VerbResume, id) }

// JobJSON returns one job's JSON view — the orchestrator's published
// snapshot, or the synthesized pending view while the submit is still
// staged. Implements ops.JobSink.
func (g *Gateway) JobJSON(id uint64) ([]byte, bool) {
	if j, ok := g.orc.Job(id); ok {
		b, _ := json.Marshal(j)
		return b, true
	}
	g.mu.Lock()
	j, ok := g.pending[id]
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	b, _ := json.Marshal(j)
	return b, true
}

// JobsJSON returns the JSON array of all jobs: injected jobs in
// submission order, then still-staged pending ones in id order.
// Implements ops.JobSink.
func (g *Gateway) JobsJSON() []byte {
	jobs := g.orc.Jobs()
	g.mu.Lock()
	for _, c := range g.staged {
		if c.Verb == VerbSubmit {
			if j, ok := g.pending[c.JobID]; ok {
				jobs = append(jobs, j)
			}
		}
	}
	g.mu.Unlock()
	b, _ := json.Marshal(jobs)
	if jobs == nil {
		return []byte("[]")
	}
	return b
}

// Staged reports how many commands await injection.
func (g *Gateway) Staged() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.staged)
}

// Drain moves every staged command into the orchestrator at the current
// virtual time. Must run on the engine goroutine — this call IS the
// injection boundary, and where in virtual time the driver places it
// fully determines the run.
func (g *Gateway) Drain() {
	g.mu.Lock()
	cmds := g.staged
	g.staged = nil
	for _, c := range cmds {
		delete(g.pending, c.JobID)
	}
	g.mu.Unlock()
	g.orc.Inject(cmds)
}
