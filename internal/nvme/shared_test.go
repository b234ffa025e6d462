package nvme

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"biza/internal/fault"
	"biza/internal/sim"
	"biza/internal/zns"
)

// TestSharedRecordsChangeNothing: queues on one engine draw their delivery
// records from the engine's free list, so a record one queue put back is
// the next one the other takes. Neither may notice, not even when one of
// them is killed with its device's power and goes on dropping commands
// while the other keeps drawing records. A random stream of appends, reads
// and resets, with jittered delivery and transient errors retried, runs on
// two queues sharing an engine and on the same two alone on engines of
// their own; each queue must deliver the same completions (time, latency,
// error, bytes read) and count the same retries and reorderings either way.
func TestSharedRecordsChangeNothing(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sharedQueueOps(t, seed)
		})
	}
}

// queueDone is one completion a queue delivered.
type queueDone struct {
	step    int
	kind    uint8
	at, lat sim.Time
	err     string
	n       int // read: payload bytes returned
}

// queueWorld is two queues on one engine (shared), or each on its own.
type queueWorld struct {
	engs []*sim.Engine
	qs   [2]*Queue
	done [2][]queueDone
}

func newQueueWorld(t *testing.T, seed int64, shared bool) *queueWorld {
	w := &queueWorld{}
	for i := range w.qs {
		if i == 0 || !shared {
			w.engs = append(w.engs, sim.NewEngine())
		}
		cfg := zns.TestConfig()
		cfg.ZoneBlocks, cfg.NumZones = 64, 4
		dev, err := zns.New(w.engs[len(w.engs)-1], cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := New(dev, Config{ReorderWindow: 10 * sim.Microsecond, ZoneOrdered: i == 1, Seed: uint64(seed) + uint64(i)})
		q.SetInjector(injected(t, &fault.Spec{Rules: []fault.Rule{
			fault.TransientErrors(0, fault.AnyOp, 0.1),
		}}, uint64(seed)+uint64(i)))
		for z := 0; z < cfg.NumZones; z++ {
			if err := dev.Open(z, false); err != nil {
				t.Fatal(err)
			}
		}
		w.qs[i] = q
	}
	return w
}

func (w *queueWorld) log(i, step int, kind uint8, err error, lat sim.Time, n int) {
	w.done[i] = append(w.done[i], queueDone{step: step, kind: kind, at: w.qs[i].eng.Now(), lat: lat, err: fmt.Sprint(err), n: n})
}

func sharedQueueOps(t *testing.T, seed int64) {
	worlds := []*queueWorld{newQueueWorld(t, seed, true), newQueueWorld(t, seed, false)}
	shared, alone := worlds[0], worlds[1]
	if shared.qs[0].opFree != shared.qs[1].opFree || alone.qs[0].opFree == alone.qs[1].opFree {
		t.Fatal("queues on one engine do not share its free list, or queues on two do")
	}
	rng := rand.New(rand.NewSource(seed))
	bs := zns.TestConfig().BlockSize
	const steps, kill = 400, 150
	for step := 0; step < steps; step++ {
		if step == kill {
			// Queue 0's host and device lose power; it stays in the
			// stream, dropping whatever it is given.
			for _, w := range worlds {
				w.qs[0].Kill()
				w.qs[0].Device().PowerLoss()
			}
		}
		i, z := rng.Intn(2), rng.Intn(4)
		switch op := rng.Intn(16); {
		case op == 0:
			for _, w := range worlds {
				w.qs[i].Reset(z, func(err error) {
					w.log(i, step, opReset, err, 0, 0)
					w.qs[i].Device().Open(z, false)
				})
			}
		case op < 8:
			lba, n := rng.Int63n(64), 1+rng.Intn(4)
			for _, w := range worlds {
				w.qs[i].ReadInto(z, lba, n, nil, false, func(r zns.ReadResult) {
					w.log(i, step, opRead, r.Err, r.Latency, len(r.Data))
				})
			}
		default:
			n := 1 + rng.Intn(4)
			data := make([]byte, n*bs)
			rng.Read(data)
			for _, w := range worlds {
				w.qs[i].Append(z, n, data, nil, zns.TagUserData, func(r zns.WriteResult) {
					w.log(i, step, opAppend, r.Err, r.Latency, 0)
				})
			}
		}
		until := shared.engs[0].Now() + []sim.Time{0, 2 * sim.Microsecond, 20 * sim.Microsecond, 200 * sim.Microsecond}[rng.Intn(4)]
		if step == steps-1 {
			until = 1 << 62
		}
		for _, w := range worlds {
			for _, e := range w.engs {
				e.RunUntil(until)
			}
		}
		for i := range shared.qs {
			if got, want := shared.done[i], alone.done[i]; !slices.Equal(got, want) {
				t.Fatalf("step %d: queue %d completed %+v on a shared engine, %+v alone", step, i, got, want)
			}
			s, a := shared.qs[i], alone.qs[i]
			if s.Retries() != a.Retries() || s.Reordered() != a.Reordered() {
				t.Fatalf("step %d: queue %d counts %d retries and %d reorderings on a shared engine, %d and %d alone",
					step, i, s.Retries(), s.Reordered(), a.Retries(), a.Reordered())
			}
		}
	}
	for _, d := range shared.done[0] {
		if d.step >= kill {
			t.Fatalf("the killed queue completed a command of step %d", d.step)
		}
	}
	if shared.qs[1].Retries() == 0 || len(shared.done[1]) < steps/4 {
		t.Fatalf("the stream exercised too little: %d retries, %d completions on the live queue",
			shared.qs[1].Retries(), len(shared.done[1]))
	}
	if got, want := len(*shared.qs[0].opFree), len(*alone.qs[0].opFree)+len(*alone.qs[1].opFree); got >= want {
		t.Fatalf("the shared engine holds %d records, the two alone %d: the queues never drew each other's", got, want)
	}
}
