package bench

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
)

func init() { registerMulti("fleet", Fleet) }

// Fleet sizing constants. The fabric latency doubles as the shard
// group's barrier window: every client hop between arrays models at
// least one fabric round, which is exactly the conservative lookahead
// the deterministic cross-shard merge requires.
const (
	fleetFabricLat = 20 * sim.Microsecond
	fleetOpBlocks  = 8    // 32 KiB per op at 4 KiB blocks
	fleetSpan      = 2048 // per-array working set, blocks (8 MiB)
	fleetZones     = 16   // zones per member device
	fleetTheta     = 0.9  // zipf skew of array popularity
)

// fleetArray is one array of the fleet plus its accounting. All fields
// are touched only from the owning shard's goroutine (or from the
// coordinator before/after the group runs).
type fleetArray struct {
	shard *sim.Shard
	dev   blockdev.Device

	next    int64 // next sequential write lba (wraps over the span)
	written int64 // high-water mark of written lbas (read eligibility)

	ops, reads, writes int64
	bytes              uint64
	hops               int64 // client arrivals (inter-array fabric hops)
	lat                *metrics.Histogram
}

// fleetClient is a closed-loop client hopping between arrays. Its state
// travels with it: every field is touched only on the shard currently
// hosting the client, with the barrier providing the happens-before edge
// between hops — and the canonical merge making the hop order, and thus
// the RNG consumption order, independent of the shard count.
type fleetClient struct {
	id   int
	rng  *sim.RNG
	zipf *sim.ZipfGen
	ops  int64
}

// Fleet scales the simulation out rather than up: hundreds of
// independent BIZA arrays partitioned across engine shards
// (sim.ShardGroup), with thousands of closed-loop clients hopping
// between arrays through the deterministic cross-shard fabric. Tables
// report per-array-group traffic and the per-client fairness spread;
// every cell derives from virtual time only, so output is bit-identical
// at any -shards value. The wall-clock payoff of sharding is measured
// separately (the benchmark ladder's sim.shard2_speedup rung).
func Fleet(s Scale, r *Run) []*Table {
	numArrays, numClients := s.FleetArrays, s.FleetClients
	if numArrays < 1 || numClients < 1 {
		panic("fleet: scale has no fleet sizing")
	}
	g := r.ShardGroup(fleetFabricLat)

	// Construct arrays in canonical order on round-robin shards; the
	// construction (and therefore trace) order never depends on the
	// shard count.
	arrays := make([]*fleetArray, numArrays)
	for i := range arrays {
		sh := g.Shard(i % g.Shards())
		z := stack.BenchZNS(fleetZones)
		p, err := r.PlatformOnShard(sh, stack.KindBIZA, stack.Options{
			ZNS:  z,
			Seed: r.Seed(fmt.Sprintf("stack/a%03d", i)),
		})
		if err != nil {
			panic(fmt.Sprintf("fleet: array %d: %v", i, err))
		}
		arrays[i] = &fleetArray{shard: sh, dev: p.Dev, lat: newLatHist()}
	}
	bs := arrays[0].dev.BlockSize()

	clients := make([]*fleetClient, numClients)
	for i := range clients {
		rng := sim.NewRNG(r.Seed(fmt.Sprintf("client/%04d", i)))
		clients[i] = &fleetClient{id: i, rng: rng,
			zipf: sim.NewZipfGen(rng, numArrays, fleetTheta)}
	}

	endAt := s.Duration

	// visit runs one client op on one array, on the array's shard, then
	// hops the client to its next array through the deterministic fabric.
	var visit func(c *fleetClient, a *fleetArray)
	visit = func(c *fleetClient, a *fleetArray) {
		eng := a.shard.Engine()
		start := eng.Now()
		if start >= endAt {
			return // client retires; in-flight work drains the group
		}
		a.hops++
		finish := func(op string, err error) {
			if err != nil {
				panic(fmt.Sprintf("fleet: %s: %v", op, err))
			}
			now := eng.Now()
			a.ops++
			c.ops++
			a.bytes += uint64(fleetOpBlocks * bs)
			a.lat.Record(now - start)
			b := arrays[c.zipf.Next()]
			a.shard.Send(b.shard.ID(), now+fleetFabricLat, int64(c.id),
				func() { visit(c, b) })
		}
		if a.written == 0 || c.rng.Intn(10) < 4 { // 40% writes
			lba := a.next
			a.next = (a.next + fleetOpBlocks) % fleetSpan
			if a.written < fleetSpan {
				a.written = lba + fleetOpBlocks
			}
			a.writes++
			a.dev.Write(lba, fleetOpBlocks, nil, func(res blockdev.WriteResult) {
				finish("write", res.Err)
			})
			return
		}
		a.reads++
		lim := a.written - fleetOpBlocks + 1
		if lim < 1 {
			lim = 1
		}
		lba := c.rng.Int63n(lim)
		a.dev.Read(lba, fleetOpBlocks, func(res blockdev.ReadResult) {
			finish("read", res.Err)
		})
	}

	// Seed every client onto its first array with a staggered start; the
	// coordinator-side sends merge into the same canonical stream as
	// in-run hops, so placement order is shard-count-invariant too.
	for _, c := range clients {
		a := arrays[c.zipf.Next()]
		at := fleetFabricLat + sim.Time(c.rng.Intn(int(8*fleetFabricLat)))
		c := c
		g.Send(a.shard.ID(), at, int64(c.id), func() { visit(c, a) })
	}

	g.Run(endAt)
	if !g.Drain(endAt + 100*sim.Millisecond) {
		panic("fleet: group did not quiesce after the measured horizon")
	}

	// Per-group traffic table, arrays binned canonically.
	groups := 8
	if numArrays < groups {
		groups = numArrays
	}
	per := (numArrays + groups - 1) / groups
	traffic := &Table{ID: "fleet",
		Title:  fmt.Sprintf("sharded fleet: %d arrays, %d clients, zipf(%.1f) hops", numArrays, numClients, fleetTheta),
		Header: []string{"arrays", "ops", "reads", "writes", "MBps", "p50_us", "p99_us", "hops"}}
	secs := float64(endAt) / float64(sim.Second)
	addRow := func(label string, as []*fleetArray) {
		h := newLatHist()
		var ops, reads, writes, hops int64
		var bytes uint64
		for _, a := range as {
			h.Merge(a.lat)
			ops, reads, writes, hops = ops+a.ops, reads+a.reads, writes+a.writes, hops+a.hops
			bytes += a.bytes
		}
		traffic.Add(label,
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%d", reads),
			fmt.Sprintf("%d", writes),
			f1(float64(bytes)/(1<<20)/secs),
			us(sim.Time(h.Percentile(50))),
			us(sim.Time(h.Percentile(99))),
			fmt.Sprintf("%d", hops))
		if label == "all" {
			r.PublishHistogram("fleet/latency", "ns", h)
		}
	}
	for lo := 0; lo < numArrays; lo += per {
		hi := lo + per
		if hi > numArrays {
			hi = numArrays
		}
		addRow(fmt.Sprintf("a%03d-a%03d", lo, hi-1), arrays[lo:hi])
	}
	addRow("all", arrays)

	// Per-client fairness spread: closed-loop clients over a zipf-skewed
	// fleet should still all make progress.
	perClient := metrics.NewHistogram()
	minOps, maxOps := clients[0].ops, clients[0].ops
	for _, c := range clients {
		perClient.Record(c.ops)
		if c.ops < minOps {
			minOps = c.ops
		}
		if c.ops > maxOps {
			maxOps = c.ops
		}
	}
	fairness := &Table{ID: "fleet-clients",
		Title:  "per-client completed ops (closed loop, one op in flight per client)",
		Header: []string{"clients", "min_ops", "p50_ops", "p99_ops", "max_ops"}}
	fairness.Add(fmt.Sprintf("%d", numClients),
		fmt.Sprintf("%d", minOps),
		fmt.Sprintf("%d", perClient.Percentile(50)),
		fmt.Sprintf("%d", perClient.Percentile(99)),
		fmt.Sprintf("%d", maxOps))
	return []*Table{traffic, fairness}
}
