package fault

import (
	"errors"
	"testing"

	"biza/internal/sim"
	"biza/internal/storerr"
)

func mustCompile(t *testing.T, spec *Spec, seed uint64, members int) *Plan {
	t.Helper()
	p, err := Compile(spec, seed, members)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
	}{
		{"rate out of range", Rule{Kind: Transient, Dev: 0, Rate: 1.5}},
		{"negative rate", Rule{Kind: Transient, Dev: 0, Rate: -0.1}},
		{"latency without delay", Rule{Kind: Latency, Dev: 0}},
		{"unreadable without blocks", Rule{Kind: Unreadable, Dev: 0, Zone: 1, Lba: 0}},
		{"unreadable negative lba", Rule{Kind: Unreadable, Dev: 0, Zone: 1, Lba: -1, Blocks: 4}},
		{"death without trigger", Rule{Kind: DeviceDeath, Dev: 0}},
		{"power loss without time", Rule{Kind: PowerLoss}},
		{"dev out of range", Rule{Kind: DeviceDeath, Dev: 4, At: 1}},
		{"dev below -1", Rule{Kind: DeviceDeath, Dev: -2, At: 1}},
		{"unknown kind", Rule{Kind: Kind(200), Dev: 0}},
	}
	for _, tc := range cases {
		if _, err := Compile(&Spec{Rules: []Rule{tc.rule}}, 1, 4); err == nil {
			t.Errorf("%s: compile accepted invalid rule", tc.name)
		}
	}
	if _, err := Compile(nil, 1, 0); err == nil {
		t.Error("accepted zero members")
	}
	// A nil spec compiles to a benign plan with per-member injectors.
	p := mustCompile(t, nil, 1, 4)
	if p.Injector(3) == nil || p.Injector(4) != nil || p.Injector(-1) != nil {
		t.Error("nil-spec plan injector bounds wrong")
	}
}

func TestNilSafety(t *testing.T) {
	var in *Injector
	if d := in.OnDeliver(0, Write, 0, 0, 1); d.Err != nil || d.Delay != 0 {
		t.Error("nil injector injected")
	}
	in.SetTracer(nil, 0)
	if in.Injected() != 0 {
		t.Error("nil injector reports state")
	}
	var p *Plan
	if p.Injector(0) != nil || p.PowerLossTimes() != nil {
		t.Error("nil plan not inert")
	}
}

func TestTransientRateAndDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		p := mustCompile(t, &Spec{Rules: []Rule{TransientErrors(0, Write, 0.3)}}, seed, 2)
		in := p.Injector(0)
		out := make([]bool, 0, 5000)
		for i := 0; i < 5000; i++ {
			d := in.OnDeliver(sim.Time(i), Write, 0, int64(i), 1)
			out = append(out, d.Err != nil)
		}
		return out
	}
	a, b := run(7), run(7)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits < 1200 || hits > 1800 {
		t.Fatalf("rate 0.3 injected %d/5000", hits)
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestTransientScopeAndBudget(t *testing.T) {
	spec := &Spec{Rules: []Rule{{
		Kind: Transient, Dev: 0, Op: Read, Rate: 1, MaxCount: 2,
		From: 100, Until: 200,
	}}}
	p := mustCompile(t, spec, 1, 1)
	in := p.Injector(0)
	if d := in.OnDeliver(150, Write, 0, 0, 1); d.Err != nil {
		t.Fatal("op scope ignored")
	}
	if d := in.OnDeliver(50, Read, 0, 0, 1); d.Err != nil {
		t.Fatal("fired before From")
	}
	if d := in.OnDeliver(200, Read, 0, 0, 1); d.Err != nil {
		t.Fatal("fired at Until")
	}
	for i := 0; i < 2; i++ {
		d := in.OnDeliver(150, Read, 0, 0, 1)
		if !errors.Is(d.Err, storerr.ErrTransient) {
			t.Fatalf("hit %d: err = %v", i, d.Err)
		}
	}
	if d := in.OnDeliver(150, Read, 0, 0, 1); d.Err != nil {
		t.Fatal("MaxCount not enforced")
	}
	if in.Injected() != 2 {
		t.Fatalf("Injected = %d", in.Injected())
	}
}

func TestDeviceDeathAt(t *testing.T) {
	p := mustCompile(t, &Spec{Rules: []Rule{KillDevice(1, 1000)}}, 1, 3)
	in := p.Injector(1)
	if d := in.OnDeliver(999, Write, 0, 0, 1); d.Err != nil {
		t.Fatal("died early")
	}
	d := in.OnDeliver(1000, Read, 0, 0, 1)
	if !errors.Is(d.Err, storerr.ErrDeviceDead) {
		t.Fatalf("at trigger: %v", d.Err)
	}
	if !in.dead {
		t.Fatal("Dead() false after trigger")
	}
	// Death is permanent and answers every command class.
	for _, op := range []Op{Read, Write, Reset} {
		if d := in.OnDeliver(2000, op, 5, 9, 1); !errors.Is(d.Err, storerr.ErrDeviceDead) {
			t.Fatalf("%v after death: %v", op, d.Err)
		}
	}
	// Other members unaffected.
	if d := p.Injector(0).OnDeliver(5000, Write, 0, 0, 1); d.Err != nil {
		t.Fatal("death leaked to another member")
	}
}

func TestDeviceDeathAfterOps(t *testing.T) {
	p := mustCompile(t, &Spec{Rules: []Rule{{Kind: DeviceDeath, Dev: 0, AfterOps: 5}}}, 1, 1)
	in := p.Injector(0)
	for i := 0; i < 5; i++ {
		if d := in.OnDeliver(sim.Time(i), Write, 0, 0, 1); d.Err != nil {
			t.Fatalf("op %d died early", i)
		}
	}
	if d := in.OnDeliver(5, Write, 0, 0, 1); !errors.Is(d.Err, storerr.ErrDeviceDead) {
		t.Fatalf("op 6: %v", d.Err)
	}
}

func TestUnreadableRange(t *testing.T) {
	p := mustCompile(t, &Spec{Rules: []Rule{BadBlocks(0, 3, 10, 4)}}, 1, 1)
	in := p.Injector(0)
	cases := []struct {
		zone    int
		lba     int64
		nblocks int
		op      Op
		hit     bool
	}{
		{3, 10, 1, Read, true},
		{3, 13, 1, Read, true},
		{3, 8, 4, Read, true},  // overlaps head
		{3, 12, 8, Read, true}, // overlaps tail
		{3, 14, 1, Read, false},
		{3, 6, 4, Read, false},
		{2, 10, 1, Read, false}, // wrong zone
		{3, 10, 1, Write, false},
		{3, -1, 2, Write, false}, // append: lba unknown, never a read
	}
	for i, tc := range cases {
		d := in.OnDeliver(sim.Time(i), tc.op, tc.zone, tc.lba, tc.nblocks)
		if tc.hit != (d.Err != nil) {
			t.Errorf("case %d: err=%v want hit=%v", i, d.Err, tc.hit)
		}
		if tc.hit && !errors.Is(d.Err, storerr.ErrUnreadable) {
			t.Errorf("case %d: wrong sentinel %v", i, d.Err)
		}
	}
}

func TestLatencyAccumulates(t *testing.T) {
	spec := &Spec{Rules: []Rule{
		{Kind: Latency, Dev: 0, Op: Write, Delay: 10 * sim.Microsecond},
		{Kind: Latency, Dev: 0, Delay: 5 * sim.Microsecond},
	}}
	p := mustCompile(t, spec, 1, 1)
	in := p.Injector(0)
	if d := in.OnDeliver(0, Write, 0, 0, 1); d.Delay != 15*sim.Microsecond {
		t.Fatalf("write delay = %v", d.Delay)
	}
	if d := in.OnDeliver(0, Read, 0, 0, 1); d.Delay != 5*sim.Microsecond {
		t.Fatalf("read delay = %v", d.Delay)
	}
}

func TestBroadcastRuleIndependentStreams(t *testing.T) {
	p := mustCompile(t, &Spec{Rules: []Rule{TransientErrors(-1, AnyOp, 0.5)}}, 3, 2)
	a, b := p.Injector(0), p.Injector(1)
	same := true
	for i := 0; i < 200; i++ {
		da := a.OnDeliver(sim.Time(i), Write, 0, 0, 1)
		db := b.OnDeliver(sim.Time(i), Write, 0, 0, 1)
		if (da.Err == nil) != (db.Err == nil) {
			same = false
		}
	}
	if same {
		t.Fatal("broadcast rule shares one random stream across members")
	}
}

func TestPowerLossScheduleSorted(t *testing.T) {
	spec := &Spec{Rules: []Rule{PowerCut(300), PowerCut(100), PowerCut(200)}}
	p := mustCompile(t, spec, 1, 4)
	times := p.PowerLossTimes()
	if len(times) != 3 || times[0] != 100 || times[1] != 200 || times[2] != 300 {
		t.Fatalf("schedule = %v", times)
	}
	// Power-loss rules are platform-wide: no per-device rules compiled.
	for d := 0; d < 4; d++ {
		if got := p.Injector(d).OnDeliver(500, Write, 0, 0, 1); got.Err != nil {
			t.Fatal("power-loss rule leaked into an injector")
		}
	}
}

func TestInjectedErrorsWrapSentinels(t *testing.T) {
	if !errors.Is(ErrInjectedTransient, storerr.ErrTransient) ||
		!errors.Is(ErrInjectedDead, storerr.ErrDeviceDead) ||
		!errors.Is(ErrInjectedUnreadable, storerr.ErrUnreadable) {
		t.Fatal("injected errors do not wrap the storerr sentinels")
	}
}

// Kind.String reads obs's table by value (EvFault records carry the raw
// kind), so the numbering is the contract: a kind inserted mid-enum must
// fail here, not rename faults in every trace.
func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{
		Transient: "transient", Latency: "latency", Unreadable: "unreadable",
		DeviceDeath: "device-death", PowerLoss: "power-loss", PowerLoss + 1: "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", k, got, want)
		}
	}
}
