package zns

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"biza/internal/sim"
)

// TestSharedRecordsChangeNothing: devices on one engine draw their command
// and program records from the engine's free lists, so a record one device put back is the next one the other takes.
// Neither may notice. A random stream of window and sequential writes,
// reads, commits, closes, finishes, resets, and power cuts of one device
// while the other keeps drawing records, runs on two devices sharing an
// engine and on the same two alone on engines of their own. Each device must
// deliver the same completions (time, latency, error, bytes read) and keep
// the same flash counters either way: both with StoreData, both without, and
// one of each.
func TestSharedRecordsChangeNothing(t *testing.T) {
	for _, store := range [][2]bool{{true, true}, {false, false}, {true, false}} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("store=%v/seed=%d", store, seed), func(t *testing.T) {
				sharedOps(t, seed, store)
			})
		}
	}
}

// sharedDone is one completion a device delivered.
type sharedDone struct {
	step    int
	read    bool
	at, lat sim.Time
	err     string
	sum     uint32 // read: checksum of the payload and OOB records returned
	n       int    // read: payload bytes returned
}

// recWorld is two devices on one engine (shared), or each on its own.
type recWorld struct {
	engs []*sim.Engine
	devs [2]*Device
	done [2][]sharedDone
}

func newRecWorld(t *testing.T, cfg Config, store [2]bool, shared bool) *recWorld {
	w := &recWorld{}
	for i := range w.devs {
		if i == 0 || !shared {
			w.engs = append(w.engs, sim.NewEngine())
		}
		cfg.StoreData = store[i]
		d, err := New(w.engs[len(w.engs)-1], cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.devs[i] = d
	}
	return w
}

// pending is the number of events queued on the world's engines.
func (w *recWorld) pending() int {
	n := 0
	for _, e := range w.engs {
		n += e.Pending()
	}
	return n
}

// held is the number of records on the world's free lists.
func (w *recWorld) held() int {
	n := 0
	for _, e := range w.engs {
		r := sim.Local[recs](e)
		n += len(r.wop) + len(r.rop) + len(r.pop) + len(r.eop)
	}
	return n
}

func sharedOps(t *testing.T, seed int64, store [2]bool) {
	cfg := TestConfig()
	cfg.BlockSize = 256
	cfg.ZoneBlocks = 64
	cfg.NumZones = 4
	worlds := []*recWorld{newRecWorld(t, cfg, store, true), newRecWorld(t, cfg, store, false)}
	shared, alone := worlds[0], worlds[1]
	if shared.devs[0].recs != shared.devs[1].recs || alone.devs[0].recs == alone.devs[1].recs {
		t.Fatal("devices on one engine do not share its free lists, or devices on two do")
	}
	rng := rand.New(rand.NewSource(seed))
	bs := cfg.BlockSize
	var writing [2][]int // writes in flight, by device and zone
	for i := range writing {
		writing[i] = make([]int, cfg.NumZones)
	}
	// each runs an admin command on device i of both worlds.
	each := func(step, i int, cmd func(d *Device) error) {
		if a, b := cmd(shared.devs[i]), cmd(alone.devs[i]); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("step %d: device %d's admin command returns %v on a shared engine, %v alone", step, i, a, b)
		}
	}
	compare := func(step int) {
		t.Helper()
		for i := range shared.devs {
			if got, want := shared.done[i], alone.done[i]; !slices.Equal(got, want) {
				t.Fatalf("step %d: device %d completed %+v on a shared engine, %+v alone", step, i, got, want)
			}
			if got, want := shared.devs[i].Stats(), alone.devs[i].Stats(); got != want {
				t.Fatalf("step %d: device %d's flash counters are %+v on a shared engine, %+v alone", step, i, got, want)
			}
			checkBuffered(shared.devs[i])
		}
		if shared.pending() != alone.pending() {
			t.Fatalf("step %d: %d events queued on the shared engine, %d on the two alone", step, shared.pending(), alone.pending())
		}
	}
	for step := 0; step < 400; step++ {
		i, z := rng.Intn(2), rng.Intn(cfg.NumZones)
		zn := shared.devs[i].zones[z]
		switch op := rng.Intn(24); {
		case zn.state == ZoneEmpty:
			zrwa := rng.Intn(4) != 0
			each(step, i, func(d *Device) error { return d.Open(z, zrwa) })
		case (zn.state == ZoneFull || op == 0) && writing[i][z] == 0:
			each(step, i, func(d *Device) error { d.Reset(z, nil); return nil })
		case op == 1:
			each(step, i, func(d *Device) error { return d.Finish(z) })
		case op == 2:
			each(step, i, func(d *Device) error { return d.Close(z) })
		case op == 3:
			each(step, i, func(d *Device) error { d.PowerLoss(); return nil })
			clear(writing[i]) // the writes in flight died with the power
		case op < 7 && zn.zrwa:
			upTo := zn.wp + rng.Int63n(cfg.ZRWABlocks+1)
			each(step, i, func(d *Device) error { return d.CommitZRWA(z, upTo) })
		case op < 12:
			lba := rng.Int63n(cfg.ZoneBlocks)
			n := min(1+rng.Int63n(8), cfg.ZoneBlocks-lba)
			withOOB, into := rng.Intn(2) == 0, rng.Intn(2) == 0
			for _, w := range worlds {
				var dst []byte
				if into && store[i] {
					dst = make([]byte, int(n)*bs)
				}
				w.devs[i].ReadInto(z, lba, int(n), dst, withOOB, func(r ReadResult) {
					sum := crc32.ChecksumIEEE(r.Data)
					for _, o := range r.OOB {
						sum = crc32.Update(sum, crc32.IEEETable, o)
					}
					w.done[i] = append(w.done[i], sharedDone{step: step, read: true, at: w.devs[i].eng.Now(),
						lat: r.Latency, err: fmt.Sprint(r.Err), sum: sum, n: len(r.Data)})
				})
			}
		default:
			n := int64(1 + rng.Intn(4))
			lba := zn.wp
			if zn.zrwa {
				lba += rng.Int63n(cfg.ZRWABlocks * 3 / 2)
			}
			data := make([]byte, int(n)*bs)
			rng.Read(data)
			oob := make([][]byte, n)
			for b := range oob {
				if rng.Intn(2) == 0 {
					oob[b] = []byte(fmt.Sprintf("d%d z%d step%d", i, z, step))
				}
			}
			writing[i][z]++
			for wi, w := range worlds {
				w.devs[i].Write(z, lba, int(n), data, oob, TagUserData, func(r WriteResult) {
					if wi == 0 {
						writing[i][z]--
					}
					w.done[i] = append(w.done[i], sharedDone{step: step, at: w.devs[i].eng.Now(), lat: r.Latency, err: fmt.Sprint(r.Err)})
				})
			}
		}
		// Leave a random amount of work in flight behind the next step.
		until := shared.engs[0].Now() + []sim.Time{0, 0, 5 * sim.Microsecond, 50 * sim.Microsecond, 500 * sim.Microsecond}[rng.Intn(5)]
		for _, w := range worlds {
			for _, e := range w.engs {
				e.RunUntil(until)
			}
		}
		compare(step)
	}
	for _, w := range worlds {
		for _, e := range w.engs {
			e.Run()
		}
	}
	compare(-1)
	if st := shared.devs[0].Stats(); st.TotalProgrammed() == 0 || st.Erases == 0 {
		t.Fatalf("the stream exercised too little: %+v", st)
	}
	if shared.held() >= alone.held() {
		t.Fatalf("the shared engine holds %d records, the two alone %d: the devices never drew each other's", shared.held(), alone.held())
	}
}
