package trace

import (
	"math"
	"testing"

	"biza/internal/ftl"
	"biza/internal/sim"
)

func TestCharacterize(t *testing.T) {
	tr := &Trace{BlockSize: 4096, Ops: []Op{
		{Write: true, LBA: 0, Blocks: 1},
		{Write: true, LBA: 8, Blocks: 2},
		{Write: false, LBA: 0, Blocks: 4},
	}}
	s := tr.Characterize()
	if s.Ops != 3 {
		t.Fatalf("ops = %d", s.Ops)
	}
	if math.Abs(s.WriteRatio-2.0/3.0) > 1e-9 {
		t.Fatalf("write ratio = %v", s.WriteRatio)
	}
	if s.AvgWriteBytes != 1.5*4096 || s.AvgReadBytes != 4*4096 {
		t.Fatalf("avg sizes %v/%v", s.AvgWriteBytes, s.AvgReadBytes)
	}
	if tr.Footprint() != 10 {
		t.Fatalf("footprint = %d", tr.Footprint())
	}
}

func TestWriteReuseDistancesExact(t *testing.T) {
	// Writes: A, B, A. Reuse distance of the second A = bytes written
	// between the two A visits = 2 blocks (B plus the first A itself...
	// paper counts data written between consecutive visits: after writing
	// A the clock advances, then B, so distance = 2 * 4096).
	tr := &Trace{BlockSize: 4096, Ops: []Op{
		{Write: true, LBA: 0, Blocks: 1},
		{Write: true, LBA: 9, Blocks: 1},
		{Write: true, LBA: 0, Blocks: 1},
	}}
	ds := tr.WriteReuseDistances()
	if len(ds) != 1 || ds[0] != 2*4096 {
		t.Fatalf("distances = %v", ds)
	}
}

func TestReuseCDFMonotonic(t *testing.T) {
	tr := &Trace{BlockSize: 4096}
	rng := sim.NewRNG(5)
	for i := 0; i < 20000; i++ {
		tr.Ops = append(tr.Ops, Op{Write: true, LBA: rng.Int63n(4096), Blocks: 1})
	}
	th := []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20}
	cdf := tr.ReuseCDF(th)
	prev := -1.0
	for i, v := range cdf {
		if v < prev || v < 0 || v > 1 {
			t.Fatalf("CDF not monotonic at %d: %v", i, cdf)
		}
		prev = v
	}
	fb := tr.FractionBeyond(16 << 20)
	if math.Abs((1-cdf[2])-fb) > 1e-9 {
		t.Fatalf("FractionBeyond inconsistent with CDF: %v vs %v", fb, 1-cdf[2])
	}
}

func TestReplayDrivesDevice(t *testing.T) {
	eng := sim.NewEngine()
	dev, err := ftl.New(eng, ftl.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{BlockSize: 4096}
	rng := sim.NewRNG(7)
	for i := 0; i < 500; i++ {
		tr.Ops = append(tr.Ops, Op{
			Write:  rng.Float64() < 0.7,
			LBA:    rng.Int63n(dev.Blocks() - 4),
			Blocks: 1 + rng.Intn(4),
		})
	}
	res := Replay(eng, dev, tr, 8)
	if res.Ops != 500 || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if res.Bytes == 0 || res.Elapsed <= 0 {
		t.Fatal("no volume or time recorded")
	}
	if res.WriteLat.Count() == 0 || res.ReadLat.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
	if res.Throughput().MBps() <= 0 {
		t.Fatal("throughput not positive")
	}
}
