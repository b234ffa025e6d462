package obs

import "biza/internal/metrics"

// Virtual-time series support: an optional metrics.Sampler attached to a
// Trace. The sampler has no events of its own — Counter catches it up past
// any due ticks before applying each probe update (see Counter), so series
// content is a pure function of the deterministic probe emission stream.

// EnableSampler attaches a virtual-time series sampler. Every probe the
// trace has seen (or later sees) becomes a sampled source automatically,
// in probe-first-seen order. Nil-safe; enabling twice replaces the sampler.
func (t *Trace) EnableSampler() {
	if t == nil {
		return
	}
	t.sampler = metrics.NewSampler()
	for _, key := range t.probeSeq {
		t.registerProbeSeries(t.probes[key])
	}
}

// registerProbeSeries adds one probe aggregate as a sampler source. Both
// probe classes sample their last-written value: that is the live reading
// for a gauge and the cumulative total for a counter (rates derive by
// differencing adjacent points).
func (t *Trace) registerProbeSeries(agg *probeAgg) {
	t.sampler.Register(ProbeName(agg.key), probeNature(agg.key), func() float64 { return float64(agg.last) })
}

// AdvanceSampler catches the sampler up to ts without recording a probe —
// platforms call it from Finalize hooks (or tests directly) so the series
// extend to the end of the run even when the tail is probe-quiet. Nil-safe.
func (t *Trace) AdvanceSampler(ts int64) {
	if t == nil || t.sampler == nil {
		return
	}
	t.sampler.Advance(ts)
}

// SeriesDumps exports the sampled series in registration order, labeled
// with the trace name. Nil when no sampler is enabled or nothing ticked.
func (t *Trace) SeriesDumps() []metrics.SeriesDump {
	if t == nil || t.sampler == nil {
		return nil
	}
	return t.sampler.Dump(t.name)
}
