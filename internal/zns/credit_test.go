package zns

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"biza/internal/sim"
)

// creditParity pins, for each seed of creditScript, the hash of the log
// and the number of events the engine fired. The scripts reset zones with
// writes in the credit FIFO and programs in flight, so the pins cover
// what a reset takes with its blocks: those writes' claim on credit, and
// the stale programs' release.
var creditParity = []struct {
	seed   int64
	hash   uint64
	events int
}{
	{1, 0xc66a192c4e8401f6, 2647},
	{2, 0xf45238affa8c1628, 2451},
	{3, 0xe4ae14dcce77461b, 2475},
	{4, 0x8a54816166eb93df, 2575},
	{5, 0xe495fed65446f797, 2857},
	{6, 0xb237d0165995d39b, 2855},
}

// TestCreditAdmissionMatchesParent: a ZRWA write's controller completion
// enters the heap only when it will be granted buffer credit, and the
// device must not notice. Fixed-seed scripts on four zones with a 16-block
// ZRWA deliver window writes and overwrites at random depth, commit, and
// issue Finish, Close and Reset while a delivered write is in the
// controller and while one waits for credit, reopen zones, and cut power.
// Every completion and admin result must be what the pinned log holds,
// every delivered write must complete, and the engine must fire exactly
// the pinned number of events, so arming a completion whatever the credit
// fails.
func TestCreditAdmissionMatchesParent(t *testing.T) {
	var cov creditCoverage
	for _, want := range creditParity {
		t.Run(fmt.Sprintf("seed=%d", want.seed), func(t *testing.T) {
			hash, events, stranded := creditScript(t, want.seed, &cov)
			t.Logf("log hash %#x, %d events", hash, events)
			if hash != want.hash {
				t.Errorf("log hash %#x, want %#x", hash, want.hash)
			}
			if events != want.events {
				t.Errorf("%d events, want %d", events, want.events)
			}
			if stranded != 0 {
				t.Errorf("%d delivered writes never completed", stranded)
			}
		})
	}
	t.Logf("Finish, Close, Reset with a write in the controller and refused for a waiting one: %v", cov)
	for i, c := range cov {
		if c[0] == 0 || c[1] == 0 {
			t.Errorf("%s: issued %d times with a write in the controller and %d times with one waiting for credit; want both",
				[...]string{"Finish", "Close", "Reset"}[i], c[0], c[1])
		}
	}
}

// creditCoverage counts, for Finish, Close and Reset, the commands issued
// while a write to the zone was surely in the controller (delivered less
// than the controller's overhead ago), and those refused because a write
// waited for credit.
type creditCoverage [3][2]int

// creditScript runs one seed and returns the hash of its log, the number
// of events fired and the delivered writes that never completed. It drives the engine by Step alone, up to a
// sentinel event at each step's horizon, so it counts every event, and
// uses nothing of the device but its exported API.
func creditScript(t *testing.T, seed int64, cov *creditCoverage) (uint64, int, int) {
	cfg := TestConfig()
	cfg.BlockSize = 512
	cfg.ZoneBlocks = 96
	cfg.NumZones = 4
	cfg.ZRWABlocks = 16
	cfg.StoreData = false
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	logf := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	events := 0
	const maxEvents = 1 << 20
	step := func() {
		if !eng.Step() {
			t.Fatal("the heap ran dry before the step's sentinel")
		}
		if events++; events > maxEvents {
			t.Fatalf("more than %d events: the device loops", maxEvents)
		}
	}
	runTo := func(at sim.Time) {
		reached := false
		eng.At(at, func() { reached = true })
		for !reached {
			step()
		}
	}
	// delivered[z] holds the delivery times of z's writes not yet complete.
	delivered := make([]map[int]sim.Time, cfg.NumZones)
	for z := range delivered {
		delivered[z] = map[int]sim.Time{}
	}
	inCtrl := func(z int) bool {
		for _, at := range delivered[z] {
			if eng.Now()-at < cfg.CmdOverhead {
				return true
			}
		}
		return false
	}
	admin := func(i, z int, err error) {
		logf("%d %s z%d: %v", eng.Now(), [...]string{"finish", "close", "reset"}[i], z, err)
		if inCtrl(z) {
			cov[i][0]++
		}
		if errors.Is(err, ErrWrongState) {
			cov[i][1]++
		}
	}
	id := 0
	for s := 0; s < 500; s++ {
		z := rng.Intn(cfg.NumZones)
		info, _ := d.ZoneInfo(z)
		switch op := rng.Intn(20); {
		case info.State == ZoneEmpty || op == 0:
			zrwa := rng.Intn(5) != 0
			logf("%d open z%d zrwa=%v: %v", eng.Now(), z, zrwa, d.Open(z, zrwa))
		case op == 1:
			admin(0, z, d.Finish(z))
		case op == 2:
			if info.State.IsOpen() {
				admin(1, z, d.Close(z))
			}
		case op == 3 || info.State == ZoneFull:
			z, at := z, eng.Now()
			d.Reset(z, func(err error) {
				logf("%d reset z%d issued at %d: %v", eng.Now(), z, at, err)
				if errors.Is(err, ErrWrongState) {
					cov[2][1]++
				}
			})
			if inCtrl(z) {
				cov[2][0]++
			}
		case op == 4 && rng.Intn(4) == 0:
			logf("%d power loss", eng.Now())
			d.PowerLoss()
			for _, m := range delivered {
				clear(m)
			}
		case op < 7:
			upTo := info.WritePtr + rng.Int63n(cfg.ZRWABlocks+1)
			logf("%d commit z%d to %d: %v", eng.Now(), z, upTo, d.CommitZRWA(z, upTo))
		case op < 9:
			lba := rng.Int63n(cfg.ZoneBlocks)
			n := min(1+rng.Int63n(4), cfg.ZoneBlocks-lba)
			at := eng.Now()
			d.Read(z, lba, int(n), func(r ReadResult) {
				logf("%d read z%d %d+%d issued at %d: %d %v", eng.Now(), z, lba, n, at, r.Latency, r.Err)
			})
		default:
			// A burst of window writes and overwrites, past the window
			// often enough to commit implicitly and run out of credit.
			for k := 1 + rng.Intn(8); k > 0; k-- {
				lba := info.WritePtr + rng.Int63n(cfg.ZRWABlocks*3/2)
				n := min(1+rng.Int63n(4), max(cfg.ZoneBlocks-lba, 1))
				z, w, at := z, id, eng.Now()
				id++
				delivered[z][w] = at
				d.Write(z, lba, int(n), nil, nil, TagUserData, func(r WriteResult) {
					delete(delivered[z], w)
					logf("%d write %d z%d %d+%d issued at %d: %d %v", eng.Now(), w, z, r.LBA, n, at, r.Latency, r.Err)
				})
			}
		}
		// Leave a random amount of work in flight behind the next step:
		// none, some of the controller's, or much more.
		gap := []sim.Time{0, 0, sim.Microsecond, 3 * sim.Microsecond, 10 * sim.Microsecond,
			30 * sim.Microsecond, 300 * sim.Microsecond}[rng.Intn(7)]
		runTo(eng.Now() + gap)
	}
	for eng.Step() {
		if events++; events > maxEvents {
			t.Fatalf("more than %d events: the device loops", maxEvents)
		}
	}
	stranded := 0
	for _, m := range delivered {
		stranded += len(m)
	}
	return h.Sum64(), events, stranded
}
