package metrics

// Virtual-time series: a deterministic periodic sampler that snapshots a
// set of registered sources on a fixed virtual-time cadence. Every sample
// lands in a preallocated per-series ring; when a ring fills, the sampler
// halves its resolution in place (keep every other point, double the
// interval), so any run length fits in bounded memory while the series
// still covers the whole run.
//
// The sampler has no clock of its own. Callers advance it with virtual
// timestamps (obs.Trace drives it from probe emissions; tests drive it
// directly), so sampled values are a pure function of the deterministic
// event stream: byte-identical output at any -parallel value.

// Sampler sizing: 50 us ticks cover a 4 ms quick run in ~80 points and a
// 50 ms default-scale run in ~1000 (one decimation). A full ring of
// seriesPoints decimates: every other point is kept and the interval
// doubles, preserving full-run coverage.
const (
	seriesInterval = 50 * 1000 // 50 us in virtual ns
	seriesPoints   = 512
)

// SeriesDump is one exported virtual-time series: the value of one source
// at times 0, IntervalNs, 2*IntervalNs, ... . It rides in the benchmark
// Result JSON ("series" section).
type SeriesDump struct {
	Trace      string    `json:"trace,omitempty"` // owning trace name
	Name       string    `json:"name"`            // probe/source name
	Kind       ProbeKind `json:"kind"`
	IntervalNs int64     `json:"interval_ns"`
	Points     []float64 `json:"points"`
}

// Sampler snapshots registered sources on a fixed virtual-time cadence.
// It is single-goroutine, like the trace/engine that drives it.
type Sampler struct {
	interval int64
	next     int64 // virtual time of the next tick (k*interval)
	count    int   // ticks recorded so far (= len of every ring)

	names []string
	kinds []ProbeKind
	fns   []func() float64
	rings [][]float64 // rings[i]: cap seriesPoints, len count
}

// NewSampler returns an empty sampler ticking every 50 us.
func NewSampler() *Sampler { return &Sampler{interval: seriesInterval} }

// Register adds a named source sampled by fn at every subsequent tick.
// Ticks recorded before registration backfill as zero, so every series in
// a sampler spans the same window. Registration order is the export order
// and must therefore be deterministic (it is, when driven by a trace's
// probe-first-seen order).
func (s *Sampler) Register(name string, kind ProbeKind, fn func() float64) {
	s.names = append(s.names, name)
	s.kinds = append(s.kinds, kind)
	s.fns = append(s.fns, fn)
	ring := make([]float64, s.count, seriesPoints)
	s.rings = append(s.rings, ring)
}

// Due reports whether Advance(ts) would record at least one tick — the
// hot-path guard, one compare.
func (s *Sampler) Due(ts int64) bool { return ts >= s.next }

// Advance records every tick with time <= ts. Tick k samples at virtual
// time k*Interval; callers must present non-decreasing timestamps (probe
// emission times are). Steady-state advancement is allocation-free.
func (s *Sampler) Advance(ts int64) {
	for s.next <= ts {
		s.tick()
	}
}

// tick snapshots every source into its ring, decimating first when full.
func (s *Sampler) tick() {
	if s.count == seriesPoints {
		s.decimate()
	}
	for i, fn := range s.fns {
		s.rings[i] = append(s.rings[i], fn())
	}
	s.count++
	s.next += s.interval
}

// decimate halves resolution in place: keep points at even tick indices
// (times 0, 2i, 4i, ... remain exact multiples of the doubled interval)
// and re-aim the next tick at the first multiple not yet recorded.
func (s *Sampler) decimate() {
	keep := (s.count + 1) / 2
	for i := range s.rings {
		ring := s.rings[i]
		for j := 0; j < keep; j++ {
			ring[j] = ring[2*j]
		}
		s.rings[i] = ring[:keep]
	}
	s.count = keep
	s.interval *= 2
	s.next = int64(keep) * s.interval
}

// Dump exports every series in registration order. trace labels the
// owning trace in each dump. Points are copied; the sampler stays live.
func (s *Sampler) Dump(trace string) []SeriesDump {
	if s == nil || len(s.names) == 0 {
		return nil
	}
	out := make([]SeriesDump, len(s.names))
	for i := range s.names {
		pts := make([]float64, len(s.rings[i]))
		copy(pts, s.rings[i])
		out[i] = SeriesDump{
			Trace:      trace,
			Name:       s.names[i],
			Kind:       s.kinds[i],
			IntervalNs: s.interval,
			Points:     pts,
		}
	}
	return out
}
