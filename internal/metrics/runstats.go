package metrics

import "fmt"

// RunStats couples the wall-clock cost of driving a simulation with the
// virtual time it covered, so benchmark runs self-report simulator
// performance: how much virtual time each wall-clock second buys. Wall
// time is real (host) nanoseconds; virtual time is the sum of clock
// advancement across every engine the run created.
type RunStats struct {
	WallNanos    int64 `json:"wall_ns"`    // host nanoseconds spent
	VirtualNanos int64 `json:"virtual_ns"` // simulated nanoseconds covered

	// Probes carries observability probe readings (per-channel busy time,
	// peak open zones, peak queue depth) when the run was traced; empty
	// otherwise.
	Probes []ProbeStat `json:"probes,omitempty"`
}

// Speedup reports virtual nanoseconds simulated per wall nanosecond
// (>1 means the simulator outruns real time), or 0 when no wall time
// was recorded.
func (r RunStats) Speedup() float64 {
	if r.WallNanos <= 0 {
		return 0
	}
	return float64(r.VirtualNanos) / float64(r.WallNanos)
}

// Add merges other into r.
func (r *RunStats) Add(other RunStats) {
	r.WallNanos += other.WallNanos
	r.VirtualNanos += other.VirtualNanos
	r.Probes = MergeProbes(r.Probes, other.Probes)
}

func (r RunStats) String() string {
	return fmt.Sprintf("wall=%.1fms virtual=%.1fms speedup=%.2fx",
		float64(r.WallNanos)/1e6, float64(r.VirtualNanos)/1e6, r.Speedup())
}
