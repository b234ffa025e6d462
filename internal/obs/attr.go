package obs

import (
	"fmt"
	"io"
	"sort"

	"biza/internal/metrics"
)

// Per-stage latency attribution: decompose every exported span into an
// exclusive partition of named stages and fold the partitions into
// per-(layer, op) histograms — the "where did my p99 go" view.
//
// A span's marks are service intervals that may overlap (a striped write
// holds queue time on one device while another device's die is busy), so
// summing raw mark durations can exceed the span. Attribution instead
// sweeps the span's timeline and charges every instant to exactly ONE stage —
// the deepest phase active at that instant (die > bus > xfer > buffer >
// queue > qos-stall) — with uncovered time charged to "unattributed"
// (host-side submit/complete overhead and cross-layer handoff). The stage
// durations of one span therefore sum exactly to its end-to-end latency,
// and per-stage means sum exactly to the end-to-end mean.

// Attribution stages, in lifecycle order. Every Phase maps to one stage;
// unattributed absorbs the remainder.
const (
	StageQoS = iota // token-bucket admission stall (volume layer)
	StageQueue
	StageXfer
	StageBus
	StageDie
	StageBuffer
	StageOther // span time no mark covers

	NumAttrStages
)

// AttrStageNames names the attribution stages, indexed by Stage constant.
var AttrStageNames = [NumAttrStages]string{
	StageQoS: "qos-stall", StageQueue: "queue", StageXfer: "xfer", StageBus: "bus",
	StageDie: "die", StageBuffer: "buffer", StageOther: "unattributed",
}

// attrStagePrio ranks stages for overlap resolution: the deepest active
// stage wins the instant. Higher = deeper.
var attrStagePrio = [NumAttrStages]int{1, 2, 4, 5, 6, 3, 0}

// attrStageOf maps an exported phase name to its stage, or -1.
func attrStageOf(phase string) int {
	for i, n := range AttrStageNames[:StageOther] {
		if n == phase {
			return i
		}
	}
	return -1
}

// AttrGroup aggregates one (layer, op) span population.
type AttrGroup struct {
	Name  string // "layer op", e.g. "biza write"
	E2E   *metrics.Histogram
	Stage [NumAttrStages]*metrics.Histogram // per-span attributed ns; every span records every stage (0 when absent)
}

func newAttrGroup(name string) *AttrGroup {
	g := &AttrGroup{Name: name, E2E: metrics.NewHistogram()}
	for i := range g.Stage {
		g.Stage[i] = metrics.NewHistogram()
	}
	return g
}

type attrIv struct {
	start, end int64
	stage      int
}

type attrSpan struct {
	begin int64
	group *AttrGroup
	ivs   []attrIv
}

// attributeSpan sweeps span s's timeline [begin, end] and records the
// exclusive per-stage partition plus end-to-end latency.
func attributeSpan(s *attrSpan, end int64) {
	total := end - s.begin
	if total < 0 {
		total = 0
	}
	var stageDur [NumAttrStages]int64

	// Clip intervals to the span and collect sweep boundaries.
	bounds := make([]int64, 0, 2*len(s.ivs))
	ivs := s.ivs[:0]
	for _, iv := range s.ivs {
		if iv.start < s.begin {
			iv.start = s.begin
		}
		if iv.end > end {
			iv.end = end
		}
		if iv.end <= iv.start {
			continue
		}
		ivs = append(ivs, iv)
		bounds = append(bounds, iv.start, iv.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	// For each elementary interval, charge the deepest active stage.
	var covered int64
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi == lo {
			continue
		}
		best := -1
		for _, iv := range ivs {
			if iv.start <= lo && iv.end >= hi {
				if best < 0 || attrStagePrio[iv.stage] > attrStagePrio[best] {
					best = iv.stage
				}
			}
		}
		if best >= 0 {
			stageDur[best] += hi - lo
			covered += hi - lo
		}
	}
	stageDur[StageOther] = total - covered
	if stageDur[StageOther] < 0 {
		stageDur[StageOther] = 0 // marks outrunning the span (clock skew cannot happen; defensive)
	}

	s.group.E2E.Record(total)
	for st, d := range stageDur {
		s.group.Stage[st].Record(d)
	}
}

// WriteReport prints the attribution: per engine, per (layer, op), the
// end-to-end summary and every contributing stage with its share of total
// time, mean, p50, and p99. Stage means sum exactly to the end-to-end
// mean; stage percentiles are per-stage distributions (bucket-resolution).
func (a *Attribution) WriteReport(w io.Writer) {
	for _, p := range a.Procs {
		fmt.Fprintf(w, "=== %s ===\n", p.Name)
		for _, g := range p.Groups {
			e2e := g.E2E.Summarize()
			if e2e.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-24s n=%-8d e2e mean=%.3fus p50=%.3fus p99=%.3fus\n",
				g.Name, e2e.Count, e2e.Mean/1e3, float64(e2e.P50)/1e3, float64(e2e.P99)/1e3)
			fmt.Fprintf(w, "    %-14s %7s %12s %12s %12s\n", "stage", "share", "mean_us", "p50_us", "p99_us")
			for st, h := range g.Stage {
				s := h.Summarize()
				if s.Mean == 0 && st != StageOther {
					continue // stage never active for this population
				}
				share := 0.0
				if e2e.Mean > 0 {
					share = 100 * s.Mean / e2e.Mean
				}
				fmt.Fprintf(w, "    %-14s %6.1f%% %12.3f %12.3f %12.3f\n",
					AttrStageNames[st], share, s.Mean/1e3, float64(s.P50)/1e3, float64(s.P99)/1e3)
			}
		}
	}
	if a.Open > 0 {
		fmt.Fprintf(w, "unattributed open spans (no end record): %d\n", a.Open)
	}
}

// Attr reads a trace export and writes the per-stage attribution report —
// the engine behind `bizatrace attr`.
func Attr(r io.Reader, w io.Writer) error {
	a, err := Attribute(r)
	if err != nil {
		return err
	}
	if a.Spans == 0 {
		return fmt.Errorf("no completed spans in trace")
	}
	a.WriteReport(w)
	return nil
}
