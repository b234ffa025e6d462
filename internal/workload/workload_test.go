package workload

import (
	"math"
	"testing"

	"biza/internal/ftl"
	"biza/internal/sim"
)

func TestProfilesMatchTable6(t *testing.T) {
	// Spot-check Table 6 numbers encoded in the profiles.
	cases := map[string]float64{
		"casa": 0.986, "online": 0.671, "ikki": 0.928, "proj": 0.030,
		"web": 0.459, "DAP": 0.519, "MSNFS": 0.315, "lun0": 0.176,
		"lun1": 0.380, "tencent": 0.529,
	}
	for name, wr := range cases {
		p := ProfileByName(name)
		if p == nil {
			t.Fatalf("profile %s missing", name)
		}
		if p.WriteRatio != wr {
			t.Fatalf("%s write ratio %v, want %v", name, p.WriteRatio, wr)
		}
	}
	if ProfileByName("nope") != nil {
		t.Fatal("found nonexistent profile")
	}
}

func TestSynthesizedTraceMatchesProfile(t *testing.T) {
	p := *ProfileByName("online")
	tr := p.Synthesize(1, 50000)
	s := tr.Characterize()
	if math.Abs(s.WriteRatio-p.WriteRatio) > 0.02 {
		t.Fatalf("write ratio %v, want ~%v", s.WriteRatio, p.WriteRatio)
	}
	if tr.Footprint() > p.FootprintMB<<20/4096 {
		t.Fatal("footprint exceeds profile")
	}
}

func TestReuseDistanceCalibration(t *testing.T) {
	// §5.4: casa has ~8.3% of reuse distances beyond 56 MB; tencent ~90.2%.
	const threshold = 56 << 20
	casa := ProfileByName("casa").Synthesize(2, 120000)
	ten := ProfileByName("tencent").Synthesize(2, 120000)
	fc := casa.FractionBeyond(threshold)
	ft := ten.FractionBeyond(threshold)
	t.Logf("beyond 56MB: casa=%.3f tencent=%.3f", fc, ft)
	if fc > 0.30 {
		t.Fatalf("casa fraction beyond 56MB = %.3f, want small (~0.08)", fc)
	}
	if ft < 0.60 {
		t.Fatalf("tencent fraction beyond 56MB = %.3f, want large (~0.90)", ft)
	}
}

func TestSystorPopulationMatchesFig4(t *testing.T) {
	// Fig. 4 / §3.1: only ~17% of reuse distances within 14 MB.
	tr := SystorReusePopulation(3, 150000)
	within := 1 - tr.FractionBeyond(14<<20)
	t.Logf("systor within 14MB: %.3f", within)
	if within < 0.08 || within > 0.35 {
		t.Fatalf("fraction within 14MB = %.3f, want ~0.17", within)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p := *ProfileByName("web")
	a := p.Synthesize(9, 1000)
	b := p.Synthesize(9, 1000)
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

func TestRunMicroSeqWrite(t *testing.T) {
	eng := sim.NewEngine()
	dev, err := ftl.New(eng, ftl.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := RunMicro(eng, dev, MicroSpec{
		Pattern: Seq, SizeBlocks: 4, IODepth: 8, Duration: 10 * sim.Millisecond,
	})
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if res.Throughput().MBps() <= 0 {
		t.Fatal("no throughput")
	}
	if res.Lat.Count() != res.Ops {
		t.Fatal("latency samples != ops")
	}
}

func TestRunMicroRandReadAfterPrecondition(t *testing.T) {
	eng := sim.NewEngine()
	dev, err := ftl.New(eng, ftl.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	span := dev.Blocks() / 2
	Precondition(eng, dev, span, 16)
	res := RunMicro(eng, dev, MicroSpec{
		Pattern: Rand, Read: true, SizeBlocks: 2, IODepth: 4,
		Duration: 5 * sim.Millisecond, SpanBlocks: span, Seed: 5,
	})
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("read ops=%d errors=%d", res.Ops, res.Errors)
	}
}

func TestDepthIncreasesThroughput(t *testing.T) {
	run := func(depth int) float64 {
		eng := sim.NewEngine()
		dev, _ := ftl.New(eng, ftl.TestConfig())
		res := RunMicro(eng, dev, MicroSpec{
			Pattern: Seq, SizeBlocks: 4, IODepth: depth, Duration: 10 * sim.Millisecond,
		})
		return res.Throughput().MBps()
	}
	d1 := run(1)
	d16 := run(16)
	if d16 <= d1 {
		t.Fatalf("depth scaling broken: d1=%.0f d16=%.0f", d1, d16)
	}
}
