package core

// Degraded-mode coverage under injected faults: member death detected from
// completion errors, reads served via parity reconstruction (including
// open, in-flight stripes), degraded writes acknowledged within the fault
// budget, and ReplaceDevice restoring full tolerance.

import (
	"bytes"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

// attachPlan compiles spec against the core's member count and installs the
// per-device injectors on the member queues.
func attachPlan(t *testing.T, c *Core, spec *fault.Spec, seed uint64) *fault.Plan {
	t.Helper()
	plan, err := fault.Compile(spec, seed, len(c.devs))
	if err != nil {
		t.Fatal(err)
	}
	for i, ds := range c.devs {
		ds.q.SetInjector(plan.Injector(i))
	}
	return plan
}

func TestInjectedDeathDetectedAndReadsReconstruct(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	want := map[int64]byte{}
	for i := 0; i < 120; i++ {
		lba := int64(i)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(byte(i), 4096)); r.Err != nil {
			t.Fatalf("write %d: %v", i, r.Err)
		}
		want[lba] = byte(i)
	}
	eng.Run()
	// Member 1 dies (everything it is asked from now on errors out).
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.DeviceDeath, Dev: 1, AfterOps: 1},
	}}, 7)
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil {
			t.Fatalf("degraded read %d: %v", lba, r.Err)
		}
		if !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("degraded read %d: wrong content", lba)
		}
	}
	// The first failing completion flipped the member to degraded.
	h := c.Health()
	if h[1] != MemberDegraded {
		t.Fatalf("health = %v", h)
	}
	if !c.Degraded() {
		t.Fatal("Degraded() false with a dead member")
	}
	if c.Reconstructions() == 0 {
		t.Fatal("no reads were served via reconstruction")
	}
	assertNoStrayRecords(t, c)
}

func TestDegradedWritesAckedAndReadable(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	// Member 2 is dead from the very first command.
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.DeviceDeath, Dev: 2, AfterOps: 0, At: 1},
	}}, 9)
	want := map[int64]byte{}
	for i := 0; i < 90; i++ {
		lba := int64(i)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(byte(i+3), 4096)); r.Err != nil {
			t.Fatalf("degraded write %d: %v", i, r.Err)
		}
		want[lba] = byte(i + 3)
	}
	eng.Run()
	if c.DegradedWrites() == 0 {
		t.Fatal("no writes were accepted degraded")
	}
	// Every block reads back — chunks routed to the dead member are
	// recovered from the surviving slots (their payload fed the parity).
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("lba %d after degraded writes: %v", lba, r.Err)
		}
	}
	assertNoStrayRecords(t, c)
}

func TestDegradedReadInFlightStripe(t *testing.T) {
	// An open stripe's chunks must be reconstructible from its partial
	// parity (still sitting in the parity member's ZRWA).
	eng, c, _ := newTestCore(t, nil)
	// Two chunks of a three-data-chunk stripe: the stripe stays open.
	blockdev.WriteSync(eng, c, 0, 1, blockdev.Pattern(50, 4096))
	blockdev.WriteSync(eng, c, 1, 1, blockdev.Pattern(51, 4096))
	eng.Run()
	for lba := int64(0); lba < 2; lba++ {
		dev := int(c.bmt.Get(lba).loc().dev)
		if err := c.SetDeviceFailed(dev, true); err != nil {
			t.Fatal(err)
		}
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil {
			t.Fatalf("in-flight stripe, lba %d (dev %d down): %v", lba, dev, r.Err)
		}
		if !bytes.Equal(r.Data, blockdev.Pattern(byte(50+lba), 4096)) {
			t.Fatalf("in-flight stripe, lba %d: wrong content", lba)
		}
		c.SetDeviceFailed(dev, false)
	}
}

func TestRAID6DegradedInFlightDoubleLoss(t *testing.T) {
	eng, c, _ := newCore6(t)
	blockdev.WriteSync(eng, c, 0, 1, blockdev.Pattern(60, 4096))
	blockdev.WriteSync(eng, c, 1, 1, blockdev.Pattern(61, 4096))
	eng.Run()
	// Lose the owning member of each in-flight chunk simultaneously.
	d0, d1 := int(c.bmt.Get(0).loc().dev), int(c.bmt.Get(1).loc().dev)
	if d0 == d1 {
		t.Fatalf("chunks colocated on dev %d", d0)
	}
	c.SetDeviceFailed(d0, true)
	c.SetDeviceFailed(d1, true)
	for lba := int64(0); lba < 2; lba++ {
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(byte(60+lba), 4096)) {
			t.Fatalf("double loss, in-flight lba %d: %v", lba, r.Err)
		}
	}
	assertNoStrayRecords(t, c)
}

func TestRAID6DoubleInjectedDeath(t *testing.T) {
	eng, c, _ := newCore6(t)
	want := map[int64]byte{}
	for i := 0; i < 100; i++ {
		lba := int64(i)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(byte(i+7), 4096)); r.Err != nil {
			t.Fatalf("write %d: %v", i, r.Err)
		}
		want[lba] = byte(i + 7)
	}
	eng.Run()
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.DeviceDeath, Dev: 0, AfterOps: 1},
		{Kind: fault.DeviceDeath, Dev: 3, AfterOps: 1},
	}}, 13)
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("double-death read %d: %v", lba, r.Err)
		}
	}
	h := c.Health()
	if h[0] != MemberDegraded || h[3] != MemberDegraded {
		t.Fatalf("health = %v", h)
	}
	// m=2 still accepts writes with two members down.
	if r := blockdev.WriteSync(eng, c, 200, 1, blockdev.Pattern(99, 4096)); r.Err != nil {
		t.Fatalf("double-degraded write: %v", r.Err)
	}
	if r := blockdev.ReadSync(eng, c, 200, 1); r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(99, 4096)) {
		t.Fatalf("double-degraded readback: %v", r.Err)
	}
	assertNoStrayRecords(t, c)
}

func TestUnreadableBlocksReconstructWithoutDeath(t *testing.T) {
	// Latent sector errors: every zone of member 0 refuses reads, yet the
	// member is alive (writes land). Reads reconstruct; health stays
	// nominal because nothing reported device death.
	eng, c, _ := newTestCore(t, nil)
	zb := int(devConfig().ZoneBlocks)
	var rules []fault.Rule
	for z := 0; z < devConfig().NumZones; z++ {
		rules = append(rules, fault.BadBlocks(0, z, 0, zb))
	}
	want := map[int64]byte{}
	for i := 0; i < 60; i++ {
		lba := int64(i)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(byte(i+1), 4096)); r.Err != nil {
			t.Fatalf("write %d: %v", i, r.Err)
		}
		want[lba] = byte(i + 1)
	}
	eng.Run()
	attachPlan(t, c, &fault.Spec{Rules: rules}, 17)
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("unreadable-member read %d: %v", lba, r.Err)
		}
	}
	if c.Reconstructions() == 0 {
		t.Fatal("unreadable blocks did not route through reconstruction")
	}
	if c.Health()[0] != MemberHealthy {
		t.Fatal("read-only rot misreported as member death")
	}
	assertNoStrayRecords(t, c)
}

func TestMemberDeathHandlerFiresOnce(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	var deaths []int
	c.OnMemberDeath(func(dev int) { deaths = append(deaths, dev) })
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.DeviceDeath, Dev: 3, AfterOps: 1},
	}}, 19)
	for i := 0; i < 40; i++ {
		blockdev.WriteSync(eng, c, int64(i), 1, blockdev.Pattern(byte(i), 4096))
	}
	eng.Run()
	if len(deaths) != 1 || deaths[0] != 3 {
		t.Fatalf("death handler calls = %v", deaths)
	}
}

func TestInjectedDeathThenReplaceRestoresTolerance(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	want := map[int64]byte{}
	writeSome := func(base int) {
		for i := 0; i < 80; i++ {
			lba := int64(i)
			seed := byte(base + i)
			if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(seed, 4096)); r.Err != nil {
				t.Fatalf("write %d: %v", i, r.Err)
			}
			want[lba] = seed
		}
	}
	writeSome(0)
	eng.Run()
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.DeviceDeath, Dev: 2, AfterOps: 1},
	}}, 23)
	writeSome(100) // workload continues across the death
	eng.Run()
	if c.Health()[2] != MemberDegraded {
		t.Fatalf("health = %v", c.Health())
	}

	// Hot-swap a spare. It sits outside the fault plan (no injector).
	dc := devConfig()
	dc.Seed = 777
	nd, err := zns.New(eng, dc)
	if err != nil {
		t.Fatal(err)
	}
	nq := nvme.New(nd, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: 778})
	var rerr error
	ok := false
	c.ReplaceDevice(2, nq, func(err error) { rerr = err; ok = true })
	eng.Run()
	if !ok || rerr != nil {
		t.Fatalf("replace ok=%v err=%v", ok, rerr)
	}
	for i := range c.devs {
		if c.Health()[i] != MemberHealthy {
			t.Fatalf("post-rebuild health = %v", c.Health())
		}
	}
	// Full tolerance restored: any single member may fail again.
	for dev := 0; dev < 4; dev++ {
		c.SetDeviceFailed(dev, true)
		for lba, seed := range want {
			r := blockdev.ReadSync(eng, c, lba, 1)
			if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
				t.Fatalf("post-rebuild (dev %d down) lba %d: %v", dev, lba, r.Err)
			}
		}
		c.SetDeviceFailed(dev, false)
	}
	assertNoStrayRecords(t, c)
	_ = blockdev.ErrOutOfRange
}

func TestDissolveWaitsForInFlightInPlaceUpdate(t *testing.T) {
	// Regression: an in-place rewrite is a read-modify-write that changes
	// slot content without moving the bmt mapping, so a stripe dissolution
	// (GC or rebuild) capturing its live set mid-RMW would migrate the
	// pre-update content over the acknowledged rewrite and silently lose
	// it. Dissolution must wait for the stripe's in-flight update.
	eng, c, _ := newTestCore(t, nil)
	k := c.nData
	for i := 0; i < k; i++ {
		if r := blockdev.WriteSync(eng, c, int64(i), 1, blockdev.Pattern(byte(10+i), 4096)); r.Err != nil {
			t.Fatalf("write %d: %v", i, r.Err)
		}
	}
	se := c.smt.Get(c.bmt.Get(0).sn)
	if se == nil || !se.sealed {
		t.Fatal("stripe not sealed — test setup broken")
	}
	// Stall the rewrite's old-parity read so that, without the barrier, the
	// dissolution's migration read would win the race.
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.Latency, Dev: int(se.parity[0].dev), Op: fault.Read,
			Delay: 2 * sim.Millisecond},
	}}, 11)
	var wres blockdev.WriteResult
	acked := false
	c.Write(0, 1, blockdev.Pattern(99, 4096), func(r blockdev.WriteResult) { wres = r; acked = true })
	if !se.ipBusy {
		t.Fatal("rewrite did not take the in-place path — test setup broken")
	}
	// While the RMW is stalled, hot-swap the member holding another chunk
	// of the same stripe: the rebuild dissolves that stripe.
	victim := int(c.bmt.Get(1).loc().dev)
	dc := devConfig()
	dc.Seed = 888
	nd, err := zns.New(eng, dc)
	if err != nil {
		t.Fatal(err)
	}
	nq := nvme.New(nd, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: 991})
	rebuilt := false
	var rerr error
	c.ReplaceDevice(victim, nq, func(err error) { rerr = err; rebuilt = true })
	eng.Run()
	if !rebuilt || rerr != nil {
		t.Fatalf("rebuild ok=%v err=%v", rebuilt, rerr)
	}
	if !acked || wres.Err != nil {
		t.Fatalf("rewrite acked=%v err=%v", acked, wres.Err)
	}
	// The acknowledged rewrite survived the dissolution...
	if r := blockdev.ReadSync(eng, c, 0, 1); r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(99, 4096)) {
		t.Fatalf("lbn 0 lost its in-flight rewrite (err=%v)", r.Err)
	}
	// ...and so did the rest of the stripe, with tolerance restored.
	for dev := 0; dev < len(c.devs); dev++ {
		c.SetDeviceFailed(dev, true)
		for i := 0; i < k; i++ {
			want := blockdev.Pattern(byte(10+i), 4096)
			if i == 0 {
				want = blockdev.Pattern(99, 4096)
			}
			r := blockdev.ReadSync(eng, c, int64(i), 1)
			if r.Err != nil || !bytes.Equal(r.Data, want) {
				t.Fatalf("dev %d down, lbn %d: %v", dev, i, r.Err)
			}
		}
		c.SetDeviceFailed(dev, false)
	}
}

// MemberState.String reads obs's table by value (EvMemberState records
// carry the raw state), so the numbering is the contract: a state inserted
// mid-enum must fail here, not rename states in every trace.
func TestMemberStateNames(t *testing.T) {
	for s, want := range map[MemberState]string{
		MemberHealthy: "healthy", MemberDegraded: "degraded", MemberRebuilding: "rebuilding",
		MemberRebuilding + 1: "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("MemberState(%d) = %q, want %q", s, got, want)
		}
	}
}
