// Package metrics provides the measurement primitives used by every
// experiment in this repository: log-bucketed latency histograms with
// high-percentile queries, throughput meters over virtual time,
// write-amplification accounting, and CDF utilities.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a log-linear-bucketed histogram of non-negative int64 samples
// (typically virtual nanoseconds). Buckets have ~3% relative width, which is
// ample resolution for p50/p99/p99.99 queries while keeping memory constant.
type Histogram struct {
	counts []uint64
	total  uint64
	// 128-bit integer sample sum (sumHi:sumLo). A float64 accumulator here
	// drifts: once the running sum passes 2^53, each added ~2^40 ns sample
	// loses low bits, skewing Mean() on long runs. The integer sum is exact;
	// Mean rounds exactly once, at the final division.
	sumHi uint64
	sumLo uint64
	min   int64
	max   int64
}

const (
	histSubBuckets = 32 // linear sub-buckets per power of two
	histMaxExp     = 50 // covers up to ~2^50 ns (~13 days of virtual time)
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, histMaxExp*histSubBuckets),
		min:    math.MaxInt64,
	}
}

func bucketOf(v int64) int {
	if v < histSubBuckets {
		return int(v) // exact buckets for tiny values
	}
	exp := 63 - leadingZeros(uint64(v))
	// Linear interpolation within the power-of-two range.
	frac := (v - (1 << exp)) >> (exp - 5) // 32 sub-buckets
	b := exp*histSubBuckets + int(frac)
	if b >= histMaxExp*histSubBuckets {
		b = histMaxExp*histSubBuckets - 1
	}
	return b
}

// bucketMid reports a representative value for bucket b (upper edge midpoint).
func bucketMid(b int) int64 {
	if b < histSubBuckets {
		return int64(b)
	}
	exp := b / histSubBuckets
	frac := int64(b % histSubBuckets)
	lo := int64(1)<<exp + frac<<(exp-5)
	width := int64(1) << (exp - 5)
	return lo + width/2
}

func leadingZeros(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	var carry uint64
	h.sumLo, carry = bits.Add64(h.sumLo, uint64(v), 0)
	h.sumHi += carry
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	if h.sumHi == 0 {
		return float64(h.sumLo) / float64(h.total)
	}
	// Sum exceeds 64 bits: reconstruct hi*2^64 + lo in float space. The two
	// conversions round, but the accumulated sum itself is exact, so the
	// relative error stays within a couple of ulps regardless of run length.
	return (float64(h.sumHi)*0x1p64 + float64(h.sumLo)) / float64(h.total)
}

// Min reports the smallest sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample, or 0 when empty.
func (h *Histogram) Max() int64 { return h.max }

// Percentile reports the value at quantile p in [0, 100]. Within-bucket
// resolution is ~3%. Returns 0 when empty.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	// Rank convention: the smallest value such that strictly more than p% of
	// samples are <= it. This makes a 1-in-10000 outlier visible at p99.99.
	rank := uint64(math.Floor(p/100*float64(h.total)+1e-6)) + 1
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			mid := bucketMid(b)
			if mid > h.max {
				mid = h.max
			}
			if mid < h.min {
				mid = h.min
			}
			return mid
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.total += other.total
	var carry uint64
	h.sumLo, carry = bits.Add64(h.sumLo, other.sumLo, 0)
	h.sumHi += other.sumHi + carry
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Bucket is one non-empty histogram bucket: samples in [Lo, Hi) with the
// stated count. The bucket vector lets downstream tooling re-derive
// arbitrary percentiles instead of settling for the Summary scalars.
type Bucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		var lo, hi int64
		if b < histSubBuckets {
			lo, hi = int64(b), int64(b)+1
		} else {
			exp := b / histSubBuckets
			frac := int64(b % histSubBuckets)
			width := int64(1) << (exp - 5)
			lo = int64(1)<<exp + frac*width
			hi = lo + width
		}
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// Summary is a compact snapshot of a histogram.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	P9999 int64   `json:"p9999"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
}

// Summarize captures the usual percentile set.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		P9999: h.Percentile(99.99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

func (s Summary) String() string {
	// A zero-sample summary has no meaningful percentiles, and a Summary
	// assembled outside Summarize may carry NaN/Inf — never print either.
	if s.Count == 0 {
		return "n=0 (no samples)"
	}
	mean := s.Mean
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		mean = 0
	}
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p99=%.1fus p99.99=%.1fus",
		s.Count, mean/1000, float64(s.P50)/1000, float64(s.P99)/1000, float64(s.P9999)/1000)
}

// CDF computes an empirical cumulative distribution over samples: it returns
// the fraction of samples <= each of the given thresholds. Samples need not
// be sorted.
func CDF(samples []int64, thresholds []int64) []float64 {
	sorted := make([]int64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		idx := sort.Search(len(sorted), func(j int) bool { return sorted[j] > t })
		if len(sorted) == 0 {
			out[i] = 0
		} else {
			out[i] = float64(idx) / float64(len(sorted))
		}
	}
	return out
}
