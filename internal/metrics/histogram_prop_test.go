package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// Pin the integer-sum fix: accumulate a sum far past 2^53 so a float64
// accumulator would shed the low bits of every subsequent sample. One
// sample of 1 followed by 2^21 samples of 2^40+3 drifts the old
// accumulator by ~2e-10 relative; the integer sum is exact and Mean
// rounds once, so it must sit within a couple of ulps of the true mean.
func TestHistogramMeanNoDriftOnLongRuns(t *testing.T) {
	h := NewHistogram()
	const (
		n      = 1 << 21
		sample = int64(1<<40) + 3
	)
	h.Record(1)
	for i := 0; i < n; i++ {
		h.Record(sample)
	}
	exact := (1 + float64(n)*float64(sample)) / float64(n+1) // all terms < 2^62: one rounding each
	got := h.Mean()
	if rel := abs(got-exact) / exact; rel > 1e-14 {
		t.Fatalf("Mean = %.6f, exact %.6f, relative error %.3g (float accumulator drift?)", got, exact, rel)
	}
}

// The 128-bit sum must carry correctly past 2^64, including through Merge.
func TestHistogramMeanPast64Bits(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	const v = int64(1) << 62
	a.Record(v)
	a.Record(v)
	b.Record(v)
	b.Record(v)
	a.Merge(b) // sum = 2^64: hi word 1, lo word 0
	if got := a.Mean(); got != float64(v) {
		t.Fatalf("Mean after 128-bit carry = %g, want %g", got, float64(v))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func randomSamples(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		// Mix magnitudes so samples land across the log-bucket range.
		shift := uint(rng.Intn(45))
		out[i] = rng.Int63n(1<<shift + 1)
	}
	return out
}

// Percentile must be non-decreasing in p.
func TestHistogramPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram()
		for _, v := range randomSamples(rng, 1+rng.Intn(2000)) {
			h.Record(v)
		}
		prev := int64(-1)
		for p := 0.0; p <= 100; p += 0.25 {
			cur := h.Percentile(p)
			if cur < prev {
				t.Fatalf("trial %d: Percentile(%v) = %d < Percentile(%v) = %d", trial, p, cur, p-0.25, prev)
			}
			prev = cur
		}
	}
}

// Merge(a, b) must be indistinguishable from recording the union.
func TestHistogramMergeEquivalentToUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		sa := randomSamples(rng, rng.Intn(1500))
		sb := randomSamples(rng, rng.Intn(1500))
		ha, hb, hu := NewHistogram(), NewHistogram(), NewHistogram()
		for _, v := range sa {
			ha.Record(v)
			hu.Record(v)
		}
		for _, v := range sb {
			hb.Record(v)
			hu.Record(v)
		}
		ha.Merge(hb)
		if got, want := ha.Summarize(), hu.Summarize(); got != want {
			t.Fatalf("trial %d: merged summary %+v != union summary %+v", trial, got, want)
		}
		ga, gu := ha.Buckets(), hu.Buckets()
		if len(ga) != len(gu) {
			t.Fatalf("trial %d: merged buckets %d != union buckets %d", trial, len(ga), len(gu))
		}
		for i := range ga {
			if ga[i] != gu[i] {
				t.Fatalf("trial %d: bucket %d: merged %+v != union %+v", trial, i, ga[i], gu[i])
			}
		}
	}
}

// A percentile re-derived from the exported bucket vector must agree with
// Percentile to within the bucket: walking Buckets() to the same rank must
// land on a bucket whose [Lo, Hi] interval contains Percentile(p).
func TestHistogramPercentileAgreesWithBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram()
		for _, v := range randomSamples(rng, 1+rng.Intn(2000)) {
			h.Record(v)
		}
		buckets := h.Buckets()
		total := h.Count()
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 99.99} {
			rank := uint64(math.Floor(p/100*float64(total)+1e-6)) + 1 // same rank convention as Percentile
			if rank > total {
				rank = total
			}
			var cum uint64
			var hit Bucket
			for _, b := range buckets {
				cum += b.Count
				if cum >= rank {
					hit = b
					break
				}
			}
			got := h.Percentile(p)
			if got < hit.Lo || got > hit.Hi {
				t.Fatalf("trial %d: Percentile(%v) = %d outside rank bucket [%d, %d]",
					trial, p, got, hit.Lo, hit.Hi)
			}
		}
	}
}
