package ftl

import (
	"fmt"
	"hash/fnv"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/obs"
	"biza/internal/sim"
)

// TestFTLCollectorMatchesParent pins what the device-hidden collector does
// under a concurrent load, so a change to how it schedules its reads,
// programs and erases cannot move it unseen. Eight closed-loop clients
// issue three times the device's capacity over three quarters of it: one
// op in four reads a block back, the rest overwrite one block with a
// payload, so user I/O and collection share the channels and dies. Every
// completion (virtual time, block, error, payload of a read), every erase
// segment and GC victim in the trace, and the GC event, erase and migrated
// byte counts hash to the value pinned at the parent commit.
func TestFTLCollectorMatchesParent(t *testing.T) {
	const wantHash, wantGC = uint64(0x1d36b876d48f47c7), uint64(69)
	eng, d := newDev(t)
	tr := obs.New(obs.Config{SampleN: 1 << 30}) // erase segments and victims, next to no spans
	d.SetTracer(tr, 0)
	bs := d.Config().BlockSize
	h := fnv.New64a()
	rng := sim.NewRNG(17)
	span := d.Blocks() * 3 / 4
	total, issued := int(d.Blocks())*3, 0
	var issue func()
	issue = func() {
		if issued == total {
			return
		}
		issued++
		lba := rng.Int63n(span)
		if rng.Intn(4) == 0 {
			d.Read(lba, 1, func(r blockdev.ReadResult) {
				fmt.Fprintf(h, "r %d %d %v %x\n", eng.Now(), lba, r.Err, r.Data)
				issue()
			})
			return
		}
		d.Write(lba, 1, blockdev.Pattern(byte(issued), bs), func(r blockdev.WriteResult) {
			fmt.Fprintf(h, "w %d %d %v\n", eng.Now(), lba, r.Err)
			issue()
		})
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	eng.Run()
	if issued != total {
		t.Fatalf("%d of %d ops issued when the engine ran dry", issued, total)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("the trace dropped %d records", tr.Dropped())
	}
	for _, r := range tr.Records() {
		if r.Kind == obs.RecSegment || r.Kind == obs.RecEvent {
			fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", r.Kind, r.Sub, r.TS, r.Arg0, r.Arg1, r.Zone, r.Flag)
		}
	}
	fmt.Fprintf(h, "gc %d erases %d migrated %d\n", d.gcEvents, d.erases, d.gcMigrated)
	if err := d.checkMaps(); err != nil {
		t.Fatal(err)
	}
	got := h.Sum64()
	t.Logf("log hash %#x, %d victims, %d erases, %d bytes migrated", got, d.gcEvents, d.erases, d.gcMigrated)
	if d.gcMigrated == 0 {
		t.Fatal("the collector migrated nothing: the load misses the path")
	}
	if got != wantHash || d.gcEvents != wantGC {
		t.Errorf("log hash %#x after %d victims, want %#x after %d", got, d.gcEvents, wantHash, wantGC)
	}
}
