package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 1000 {
		t.Fatalf("mean = %v", h.Mean())
	}
	for _, p := range []float64{0, 50, 99, 99.99, 100} {
		v := h.Percentile(p)
		if v < 950 || v > 1050 {
			t.Fatalf("p%v = %d, want ~1000", p, v)
		}
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100000; i++ {
		h.Record(i)
	}
	cases := []struct {
		p    float64
		want int64
	}{{50, 50000}, {90, 90000}, {99, 99000}, {99.99, 99990}}
	for _, c := range cases {
		got := h.Percentile(c.p)
		rel := math.Abs(float64(got-c.want)) / float64(c.want)
		if rel > 0.05 {
			t.Errorf("p%v = %d, want %d +/- 5%%", c.p, got, c.want)
		}
	}
}

func TestHistogramTailSensitivity(t *testing.T) {
	// 9999 fast samples and 1 slow one: p99.99 must see the slow one.
	h := NewHistogram()
	for i := 0; i < 9999; i++ {
		h.Record(100)
	}
	h.Record(1000000)
	if got := h.Percentile(99.99); got < 900000 {
		t.Fatalf("p99.99 = %d, want ~1000000", got)
	}
	if got := h.Percentile(50); got > 200 {
		t.Fatalf("p50 = %d, want ~100", got)
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Record(7777777)
	h.Record(42)
	if h.Min() != 5 || h.Max() != 7777777 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-10)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatal("negative sample not clamped to zero")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 1000; i++ {
		a.Record(100)
		b.Record(10000)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 100 || a.Max() != 10000 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	p25, p75 := a.Percentile(25), a.Percentile(75)
	if p25 < 90 || p25 > 150 {
		t.Fatalf("merged p25 = %d, want ~100", p25)
	}
	if p75 < 9000 || p75 > 11000 {
		t.Fatalf("merged p75 = %d, want ~10000", p75)
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	h := NewHistogram()
	r := uint64(1)
	for i := 0; i < 50000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		h.Record(int64(r % 10000000))
	}
	prev := int64(-1)
	for p := 1.0; p <= 100; p += 0.5 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotonic: p%v=%d < %d", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramBucketRelativeError(t *testing.T) {
	// Property: a histogram holding a single value v must return a p50
	// within ~4% of v across the whole representable range.
	if err := quick.Check(func(x uint32) bool {
		v := int64(x)%1000000000 + 1
		h := NewHistogram()
		h.Record(v)
		got := h.Percentile(50)
		rel := math.Abs(float64(got-v)) / float64(v)
		return rel <= 0.04
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(5000)
	s := h.Summarize()
	if s.Count != 1 || s.String() == "" {
		t.Fatal("summary malformed")
	}
}

func TestWriteAmpFactors(t *testing.T) {
	w := WriteAmp{UserBytes: 1000, FlashDataBytes: 1200, FlashParityBytes: 400}
	if w.Factor() != 1.6 {
		t.Fatalf("factor = %v", w.Factor())
	}
	if w.DataFactor() != 1.2 || w.ParityFactor() != 0.4 {
		t.Fatalf("split factors = %v/%v", w.DataFactor(), w.ParityFactor())
	}
}

func TestWriteAmpZeroUser(t *testing.T) {
	var w WriteAmp
	if w.Factor() != 0 || w.DataFactor() != 0 || w.ParityFactor() != 0 {
		t.Fatal("zero-user WA should be 0")
	}
}

func TestWriteAmpAdd(t *testing.T) {
	a := WriteAmp{UserBytes: 10, FlashDataBytes: 20, FlashParityBytes: 5, GCMigratedBytes: 2}
	b := WriteAmp{UserBytes: 30, FlashDataBytes: 40, FlashParityBytes: 15, GCMigratedBytes: 8}
	a.Add(b)
	if a.UserBytes != 40 || a.FlashDataBytes != 60 || a.FlashParityBytes != 20 || a.GCMigratedBytes != 10 {
		t.Fatalf("add produced %+v", a)
	}
}

func TestThroughputMBps(t *testing.T) {
	tp := Throughput{Bytes: 2_170_000_000, Elapsed: 1e9}
	if got := tp.MBps(); math.Abs(got-2170) > 0.01 {
		t.Fatalf("MBps = %v", got)
	}
	if got := tp.GBps(); math.Abs(got-2.17) > 0.001 {
		t.Fatalf("GBps = %v", got)
	}
}

func TestThroughputZeroElapsed(t *testing.T) {
	tp := Throughput{Bytes: 100}
	if tp.MBps() != 0 {
		t.Fatal("zero elapsed should give zero throughput")
	}
}

func TestOpsPerSec(t *testing.T) {
	if got := OpsPerSec(1000, 2e9); got != 500 {
		t.Fatalf("ops/s = %v", got)
	}
	if OpsPerSec(10, 0) != 0 {
		t.Fatal("zero elapsed should give zero rate")
	}
}

func TestCDF(t *testing.T) {
	samples := []int64{10, 20, 30, 40, 50}
	out := CDF(samples, []int64{5, 10, 25, 50, 100})
	want := []float64{0, 0.2, 0.4, 1.0, 1.0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Fatalf("CDF = %v, want %v", out, want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	out := CDF(nil, []int64{1, 2})
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("empty CDF should be zero")
	}
}
