package sim

// Resource models a k-server FIFO queueing station in virtual time, such as
// an SSD I/O channel with k independent flash dies or a shared bandwidth
// link (k = 1). Submissions are served non-preemptively in arrival order by
// the earliest-available server.
type Resource struct {
	eng    *Engine
	freeAt []Time

	busy Time // cumulative service time, for utilization metrics
}

// NewResource returns a station with servers parallel servers.
func NewResource(eng *Engine, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{eng: eng, freeAt: make([]Time, servers)}
}

// SubmitEvent enqueues a job whose completion fires h.Fire(start, end),
// start being when service began (after queueing) and end when it
// finished, and returns end. With a pooled record this path performs zero
// allocations per submission; with a nil h it only reserves the server,
// for a caller that schedules its own completion at end.
func (r *Resource) SubmitEvent(service Time, h Handler) Time {
	return r.SubmitEventThen(service, 0, h)
}

// SubmitEventThen is SubmitEvent followed by a fixed delay: the server
// frees at end, and h.Fire(start, end) runs once, at end+after, so a stage
// that only waits a constant after this station costs no event of its own.
// It returns end+after.
func (r *Resource) SubmitEventThen(service, after Time, h Handler) Time {
	if after < 0 {
		panic("sim: negative delay after service")
	}
	start, end := r.reserve(service)
	if h != nil {
		r.eng.AtEvent(end+after, h, start, end)
	}
	return end + after
}

// SubmitTicket is SubmitEvent without the event: it enqueues the job and
// takes the ticket its completion event would have had (Engine.Ticket), for
// the caller to arm with Engine.AtTicket(end, seq, …) or never.
func (r *Resource) SubmitTicket(service Time) (end Time, seq uint64) {
	_, end = r.reserve(service)
	e := r.eng
	seq = e.Ticket()
	if end == e.now {
		e.nowSeq = seq // a zero-delay event, as scheduling it would record
	}
	return end, seq
}

// reserve assigns the job to the earliest-free server and returns its
// service window.
func (r *Resource) reserve(service Time) (start, end Time) {
	if service < 0 {
		panic("sim: negative service time")
	}
	best := 0
	for i := 1; i < len(r.freeAt); i++ {
		if r.freeAt[i] < r.freeAt[best] {
			best = i
		}
	}
	start = r.eng.Now()
	if r.freeAt[best] > start {
		start = r.freeAt[best]
	}
	end = start + service
	r.freeAt[best] = end
	r.busy += service
	return start, end
}

// BusyTime reports cumulative service time delivered by all servers.
func (r *Resource) BusyTime() Time { return r.busy }
