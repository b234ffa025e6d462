package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/core"
	"biza/internal/erasure"
	"biza/internal/ghostcache"
	"biza/internal/mdraid"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/volume"
	"biza/internal/zns"
)

// The ladder times each layer alone, driven through its exported functions
// by a fixed-seed stream, so a number here moves only when that layer (or
// one beneath it: rungs are inclusive) changes. Every rung is the median
// of ladderReps timed repetitions after one untimed one, each on freshly
// built state.
const ladderReps = 5

// rung is one ladder measurement.
type rung struct {
	name  string
	value float64
	// below names the rung this one stands on and scale converts that
	// rung's unit to this one's; the difference is printed as information.
	below string
	scale float64
}

// body runs one repetition of a rung on state its builder prepared and
// returns the operations done and the host nanoseconds they took.
type body func() (ops int, ns int64)

// timed makes a body that times all of f.
func timed(f func() int) body {
	return func() (int, int64) {
		t0 := time.Now()
		ops := f()
		return ops, time.Since(t0).Nanoseconds()
	}
}

// measure builds and runs a rung ladderReps+1 times and returns the median
// host nanoseconds per operation, the first repetition left out.
func measure(build func() body) float64 {
	var xs []float64
	for i := 0; i <= ladderReps; i++ {
		b := build()
		runtime.GC()
		ops, ns := b()
		if i > 0 {
			xs = append(xs, float64(ns)/float64(ops))
		}
	}
	return median(xs)
}

// mbPerS converts nanoseconds per byte to MB/s.
func mbPerS(nsPerByte float64) float64 { return 1e3 / nsPerByte }

// runLadder measures every rung. seed feeds the rungs' streams.
func runLadder(sc *scale, seed uint64) []rung {
	div := sc.ladderDiv
	var out []rung
	add := func(name string, v float64) { out = append(out, rung{name: name, value: v}) }
	on := func(name string, v float64, below string, scale float64) {
		out = append(out, rung{name: name, value: v, below: below, scale: scale})
	}

	// sim
	add("sim.host_ns_per_event", measure(func() body { return simEvents(seed, 400000/div, true) }))
	on("sim.host_ns_per_closure_event", measure(func() body { return simEvents(seed, 400000/div, false) }),
		"sim.host_ns_per_event", 1)
	add("sim.shard_host_ns_per_xmsg", measure(func() body { return shardMessages(200000 / div) }))
	add("sim.shard2_speedup", shard2Speedup(sc, seed))

	// zns driven directly, then nvme on the same stream: 64 KiB commands at
	// depth 8. The two write rungs run back to back because the driver's
	// overhead is their difference.
	zones := 64 / divZones(div)
	zw := measure(func() body { return znsWrite(zones, false, false) })
	nw := measure(func() body { return znsWrite(zones, true, false) })
	add("zns.write_host_ns_per_block", zw)
	add("zns.overwrite_host_ns_per_block", measure(func() body { return znsOverwrite(16000 / div) }))
	add("zns.read_host_ns_per_block", measure(func() body { return znsRead(zones) }))
	add("zns.reset_host_ns_per_zone", measure(func() body { return znsReset(32 / divZones(div)) }))
	on("nvme.write_host_ns_per_cmd", nw, "zns.write_host_ns_per_block", cmdBlocks)
	add("nvme.ordered_write_host_ns_per_cmd", measure(func() body { return znsWrite(zones, true, true) }))
	add("nvme.overhead_host_ns_per_cmd", nw-zw*cmdBlocks)

	// erasure, 4 KiB blocks
	add("erasure.encode_3p1_mb_per_s", mbPerS(measure(func() body { return erasureEncode(seed, 3, 1, 60000/div) })))
	add("erasure.encode_4p2_mb_per_s", mbPerS(measure(func() body { return erasureEncode(seed, 4, 2, 4000/div) })))
	add("erasure.delta_mb_per_s", mbPerS(measure(func() body { return erasureDelta(seed, 100000/div) })))
	add("erasure.reconstruct_mb_per_s", mbPerS(measure(func() body { return erasureReconstruct(seed, 20000/div) })))

	// buf
	add("buf.get_release_host_ns", measure(func() body { return bufGetRelease(2000000 / div) }))
	add("buf.retain_release_host_ns", measure(func() body { return bufRetainRelease(10000000 / div) }))

	// ghostcache
	add("ghostcache.access_host_ns", measure(func() body { return ghostAccess(seed, 200000/div) }))

	// core through stack.New(KindBIZA)
	on("core.stripe_write_host_ns_per_block", measure(func() body { return coreStripeWrite(seed, 1000/div) }),
		"nvme.write_host_ns_per_cmd", 1.0/cmdBlocks)
	on("core.rmw_host_ns_per_block", measure(func() body { return coreRMW(seed, 8000/div) }),
		"zns.overwrite_host_ns_per_block", 1)
	cr := measure(func() body { return coreRead(seed, 8000/div, false) })
	on("core.read_host_ns_per_block", cr, "zns.read_host_ns_per_block", 1)
	on("core.degraded_read_host_ns_per_block", measure(func() body { return coreRead(seed, 3000/div, true) }),
		"core.read_host_ns_per_block", 1)
	add("core.rebuild_host_ns_per_stripe", measure(func() body { return coreRebuild(seed, 4096/int64(divZones(div))) }))

	// volume and mdraid over a null device
	add("volume.host_ns_per_op", measure(func() body { return volumeOps(seed, 150000/div) }))
	add("mdraid.host_ns_per_op", measure(func() body { return mdraidOps(seed, 40000/div) }))
	return out
}

// divZones scales a zone count down less steeply than an operation count.
func divZones(div int) int {
	if div > 8 {
		return 8
	}
	return div
}

// printLadder writes every rung with its unit and, where it stands on
// another rung, the difference to it.
func printLadder(w io.Writer, rungs []rung, man *manifest) {
	units := map[string]string{}
	for _, d := range man.PerLayer {
		units[d.Name] = d.Unit
	}
	byName := map[string]float64{}
	for _, r := range rungs {
		byName[r.name] = r.value
	}
	for _, r := range rungs {
		fmt.Fprintf(w, "  %-40s %14.3f %-6s", r.name, r.value, units[r.name])
		if r.below != "" {
			fmt.Fprintf(w, "  (%+.3f over %s)", r.value-byName[r.below]*r.scale, r.below)
		}
		fmt.Fprintln(w)
	}
}

// ticker is a pooled event record that reschedules itself.
type ticker struct {
	eng  *sim.Engine
	g    *rng
	left *int
}

func (t *ticker) delay() sim.Time { return 1 + t.g.intn(1000) }

func (t *ticker) Fire(_, _ sim.Time) {
	if *t.left == 0 {
		return
	}
	*t.left--
	t.eng.AfterEvent(t.delay(), t, 0, 0)
}

// simEvents keeps 256 events live on one engine until n have fired, as
// pooled Handler records (AtEvent) or as closures (At).
func simEvents(seed uint64, n int, pooled bool) body {
	eng := sim.NewEngine()
	left := n
	for i := 0; i < 256; i++ {
		t := &ticker{eng: eng, g: newRNG(subSeed(seed, uint64(i))), left: &left}
		if pooled {
			eng.AfterEvent(t.delay(), t, 0, 0)
			continue
		}
		var fn func()
		fn = func() {
			if left == 0 {
				return
			}
			left--
			eng.After(t.delay(), fn)
		}
		eng.After(t.delay(), fn)
	}
	return timed(func() int {
		eng.Run()
		return n
	})
}

// shardMessages bounces 64 logical senders' messages through a one-shard
// group: each delivery sends the next one a window ahead.
func shardMessages(n int) body {
	const window = 20 * sim.Microsecond
	g := sim.NewShardGroup(1, window)
	sh := g.Shard(0)
	left := n
	for src := int64(0); src < 64; src++ {
		src := src
		var hop func()
		hop = func() {
			if left == 0 {
				return
			}
			left--
			sh.Send(0, sh.Engine().Now()+window, src, hop)
		}
		g.Send(0, window, src, hop)
	}
	return timed(func() int {
		if !g.Drain(sim.Time(n) * window) {
			fatalf("ladder: shard messages did not quiesce")
		}
		return n
	})
}

// shard2Speedup is the fleet workload's window at two shards against one,
// at a quarter of its duration and the faster of two repetitions each
// (building the fleet costs more than its window): above 1 means sharding
// pays on this host. With one CPU there is nothing to measure and the rung
// reads 0.
func shard2Speedup(sc *scale, seed uint64) float64 {
	if runtime.NumCPU() < 2 {
		return 0
	}
	small := *sc
	small.fleetDuration = sc.fleetDuration / 4
	window := func(shards int) float64 {
		var xs []float64
		for i := 0; i < 2; i++ {
			r := &rep{seed: seed, sc: &small}
			fleetRun(r, shards)
			xs = append(xs, float64(r.windowNS()))
			r.keep = nil
			runtime.GC()
		}
		return slices.Min(xs)
	}
	return window(1) / window(2)
}

const cmdBlocks = 64 << 10 / blockSize // the ladder's device command size

type zoneWrite func(z int, lba int64, nblocks int, data []byte, oob [][]byte, tag zns.WriteTag, done func(zns.WriteResult))

// fillZone writes zone z front to back in 64 KiB commands at depth 8 and
// finishes it.
func fillZone(eng *sim.Engine, d *zns.Device, write zoneWrite, z int, zrwa bool, upTo int64) {
	if err := d.Open(z, zrwa); err != nil {
		fatalf("ladder: open zone %d: %v", z, err)
	}
	var next int64
	var issue func()
	done := func(r zns.WriteResult) {
		if r.Err != nil {
			fatalf("ladder: zone write: %v", r.Err)
		}
		issue()
	}
	issue = func() {
		if next == upTo {
			return
		}
		lba := next
		next += cmdBlocks
		write(z, lba, cmdBlocks, nil, nil, zns.TagUserData, done)
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	eng.Run()
	if err := d.Finish(z); err != nil {
		fatalf("ladder: finish zone %d: %v", z, err)
	}
}

// newLadderDevice is the device the zns and nvme rungs drive: the
// experiments' geometry, no stored payloads.
func newLadderDevice(zones int) (*sim.Engine, *zns.Device) {
	eng := sim.NewEngine()
	d, err := zns.New(eng, stack.BenchZNS(zones))
	if err != nil {
		fatalf("ladder: %v", err)
	}
	return eng, d
}

// znsWrite fills zones sequentially: straight into the device with ZRWA
// zones, through a driver queue, or through a zone-ordered queue into
// plain zones. It counts blocks for the device and commands for a queue.
func znsWrite(zones int, queue, ordered bool) body {
	eng, d := newLadderDevice(zones)
	write := zoneWrite(d.Write)
	if queue {
		q := nvme.New(d, nvme.Config{ReorderWindow: 5 * sim.Microsecond, ZoneOrdered: ordered, Seed: 1})
		write = q.Write
	}
	zb := d.Config().ZoneBlocks
	return timed(func() int {
		for z := 0; z < zones; z++ {
			fillZone(eng, d, write, z, !ordered, zb)
		}
		if queue {
			return zones * int(zb) / cmdBlocks
		}
		return zones * int(zb)
	})
}

// znsOverwrite rewrites one ZRWA window in place, n commands.
func znsOverwrite(n int) body {
	eng, d := newLadderDevice(4)
	window := d.Config().ZRWABlocks
	if err := d.Open(0, true); err != nil {
		fatalf("ladder: %v", err)
	}
	var next int64
	left := int(window / cmdBlocks) // first pass fills the window, untimed
	var issue func()
	done := func(r zns.WriteResult) {
		if r.Err != nil {
			fatalf("ladder: zrwa overwrite: %v", r.Err)
		}
		issue()
	}
	issue = func() {
		if left == 0 {
			return
		}
		left--
		lba := next
		if next += cmdBlocks; next == window {
			next = 0
		}
		d.Write(0, lba, cmdBlocks, nil, nil, zns.TagUserData, done)
	}
	run := func() {
		for i := 0; i < 8; i++ {
			issue()
		}
		eng.Run()
	}
	run()
	return timed(func() int {
		left = n
		run()
		return n * cmdBlocks
	})
}

// znsRead reads filled zones front to back at depth 8.
func znsRead(zones int) body {
	eng, d := newLadderDevice(zones)
	zb := d.Config().ZoneBlocks
	for z := 0; z < zones; z++ {
		fillZone(eng, d, d.Write, z, true, zb)
	}
	return timed(func() int {
		for z := 0; z < zones; z++ {
			var next int64
			var issue func()
			done := func(r zns.ReadResult) {
				if r.Err != nil {
					fatalf("ladder: zone read: %v", r.Err)
				}
				issue()
			}
			issue = func() {
				if next == zb {
					return
				}
				lba := next
				next += cmdBlocks
				d.Read(z, lba, cmdBlocks, done)
			}
			for i := 0; i < 8; i++ {
				issue()
			}
			eng.Run()
		}
		return zones * int(zb)
	})
}

// znsReset times resets alone: each cycle puts one command in every zone
// and finishes it (untimed), then resets all zones (timed).
func znsReset(cycles int) body {
	const zones = 64
	eng, d := newLadderDevice(zones)
	return func() (int, int64) {
		var ns int64
		for c := 0; c < cycles; c++ {
			for z := 0; z < zones; z++ {
				fillZone(eng, d, d.Write, z, true, cmdBlocks)
			}
			t0 := time.Now()
			for z := 0; z < zones; z++ {
				d.Reset(z, func(err error) {
					if err != nil {
						fatalf("ladder: zone reset: %v", err)
					}
				})
			}
			eng.Run()
			ns += time.Since(t0).Nanoseconds()
		}
		return zones * cycles, ns
	}
}

func erasureBlocks(seed uint64, n int) [][]byte {
	g := newRNG(seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, blockSize)
		for j := 0; j < blockSize; j += 8 {
			v := g.next()
			for k := 0; k < 8; k++ {
				out[i][j+k] = byte(v >> (8 * k))
			}
		}
	}
	return out
}

func newCoder(k, m int) *erasure.Coder {
	c, err := erasure.NewCoder(k, m)
	if err != nil {
		fatalf("ladder: %v", err)
	}
	return c
}

// erasureEncode encodes n stripes of k data blocks; the operation count is
// data bytes, so the rung converts to MB/s.
func erasureEncode(seed uint64, k, m, n int) body {
	c := newCoder(k, m)
	data, parity := erasureBlocks(seed, k), erasureBlocks(seed+1, m)
	return timed(func() int {
		for i := 0; i < n; i++ {
			if err := c.Encode(data, parity); err != nil {
				fatalf("ladder: encode: %v", err)
			}
		}
		return n * k * blockSize
	})
}

// erasureDelta is the in-place update's kernel pair on the arrays' 3+1
// code: delta = old ^ new, then the fused parity-row update.
func erasureDelta(seed uint64, n int) body {
	c := newCoder(3, 1)
	b := erasureBlocks(seed, 5)
	old, fresh, delta, oldParity, newParity := b[0], b[1], b[2], b[3], b[4]
	return timed(func() int {
		for i := 0; i < n; i++ {
			erasure.XOR(delta, old, fresh)
			c.DeltaRow(0, i%3, delta, oldParity, newParity)
		}
		return n * blockSize
	})
}

// erasureReconstruct rebuilds one missing data block of a 3+1 stripe.
func erasureReconstruct(seed uint64, n int) body {
	c := newCoder(3, 1)
	data, parity := erasureBlocks(seed, 3), erasureBlocks(seed+1, 1)
	if err := c.Encode(data, parity); err != nil {
		fatalf("ladder: encode: %v", err)
	}
	shards := make([][]byte, 4)
	return timed(func() int {
		for i := 0; i < n; i++ {
			copy(shards, data)
			shards[3] = parity[0]
			shards[i%3] = nil
			if err := c.Reconstruct(shards); err != nil {
				fatalf("ladder: reconstruct: %v", err)
			}
		}
		return n * 3 * blockSize
	})
}

func bufGetRelease(n int) body {
	p := buf.NewPool()
	p.Get(blockSize, 64).Release()
	return timed(func() int {
		for i := 0; i < n; i++ {
			p.Get(blockSize, 64).Release()
		}
		return n
	})
}

func bufRetainRelease(n int) body {
	b := buf.NewPool().Get(blockSize, 64)
	return timed(func() int {
		for i := 0; i < n; i++ {
			b.Retain()
			b.Release()
		}
		return n
	})
}

// ghostAccess feeds the selector's cache, configured as a four-member
// ZN540 array's, a zipf(0.9) key stream over 64 Ki blocks.
func ghostAccess(seed uint64, n int) body {
	z := stack.BenchZNS(16)
	c := ghostcache.New(ghostcache.DefaultConfig(uint64(z.TotalZRWABytes()) * 4))
	g := newRNG(seed)
	keys := newZipf(1<<16, 0.9)
	stream := make([]uint64, n)
	for i := range stream {
		stream[i] = uint64(keys.draw(g))
	}
	return timed(func() int {
		var clock uint64
		for _, k := range stream {
			clock += blockSize
			c.Access(k, clock)
		}
		return n
	})
}

func ladderBIZA(seed uint64, stored bool) *stack.Platform {
	z := stack.BenchZNS(32)
	if stored {
		// hot-rmw's geometry: small zones bound the stored payloads.
		z = stack.BenchZNS(fullScale.hotZones)
		z.ZoneBlocks, z.ZRWABlocks, z.StoreData = fullScale.hotZoneBlocks, fullScale.hotZRWABlocks, true
	}
	p, err := stack.New(stack.KindBIZA, stack.Options{ZNS: z, Seed: subSeed(seed, streamStack)})
	if err != nil {
		fatalf("ladder: %v", err)
	}
	return p
}

func mustAllOK(what string, t *tally) {
	if t.failed != 0 || t.ok != t.attempted {
		fatalf("ladder: %s: %d of %d operations failed or never completed: %v", what, t.attempted-t.ok, t.attempted, t.errs)
	}
}

// coreStripeWrite appends n full stripes (three 64 KiB chunks) at depth 8,
// wrapping over 96 MiB so the array never fills with live data.
func coreStripeWrite(seed uint64, n int) body {
	p := ladderBIZA(seed, false)
	const stripe = 3 * cmdBlocks
	return timed(func() int {
		var t tally
		var next int64
		left := n
		closedLoop(p.Eng, p.Dev, 8, &t, false, func(s *ioSlot) bool {
			if left == 0 {
				return false
			}
			left--
			s.lba, s.blocks = next, stripe
			if next += stripe; next == 512*stripe {
				next = 0
			}
			return true
		}, nil)
		mustAllOK("stripe write", &t)
		return n * stripe
	})
}

// payloadFill writes [0, blocks) once, 4 KiB payload-carrying writes.
func payloadFill(p *stack.Platform, blocks int64) {
	pool := p.Dev.(blockdev.BufWriter).Pool()
	var t tally
	var next int64
	closedLoop(p.Eng, p.Dev, 16, &t, false, func(s *ioSlot) bool {
		if next == blocks {
			return false
		}
		s.lba, s.blocks, s.payload = next, 1, pool.Get(blockSize, 0)
		putStamp(s.payload.Bytes(), next, 0)
		next++
		return true
	}, nil)
	mustAllOK("payload fill", &t)
}

// coreRMW overwrites a set small enough to stay inside the open ZRWA
// windows, payloads by reference: the in-place read-modify-write path.
func coreRMW(seed uint64, n int) body {
	p := ladderBIZA(seed, true)
	const set = 64
	payloadFill(p, set)
	pool := p.Dev.(blockdev.BufWriter).Pool()
	g := newRNG(subSeed(seed, streamLoad))
	busy := make([]bool, set)
	return timed(func() int {
		var t tally
		left := n
		closedLoop(p.Eng, p.Dev, 8, &t, false, func(s *ioSlot) bool {
			if left == 0 {
				return false
			}
			left--
			lba := g.intn(set)
			for busy[lba] {
				lba = g.intn(set)
			}
			busy[lba] = true
			s.lba, s.blocks, s.payload = lba, 1, pool.Get(blockSize, 0)
			putStamp(s.payload.Bytes(), lba, uint64(left))
			return true
		}, func(s *ioSlot, err error) bool {
			busy[s.lba] = false
			return false
		})
		mustAllOK("rmw", &t)
		return n
	})
}

// coreRead reads random 32 KiB ranges of a filled span at depth 8;
// degraded marks member 0 failed on a payload-carrying array, so a third
// of the chunks are reconstructed from parity.
func coreRead(seed uint64, n int, degraded bool) body {
	p := ladderBIZA(seed, degraded)
	const span, ioBlocks = 4096, 8
	if degraded {
		payloadFill(p, span)
		if err := p.BIZA.SetDeviceFailed(0, true); err != nil {
			fatalf("ladder: %v", err)
		}
	} else {
		seqFill(p.Eng, p.Dev, span, cmdBlocks)
	}
	g := newRNG(subSeed(seed, streamLoad))
	return timed(func() int {
		var t tally
		left := n
		closedLoop(p.Eng, p.Dev, 8, &t, false, func(s *ioSlot) bool {
			if left == 0 {
				return false
			}
			left--
			s.lba, s.blocks, s.read = g.intn(span-ioBlocks), ioBlocks, true
			return true
		}, nil)
		mustAllOK("read", &t)
		return n * ioBlocks
	})
}

// coreRebuild replaces member 0 of a filled payload-carrying array and
// counts the stripes the rebuild dissolves.
func coreRebuild(seed uint64, blocks int64) body {
	p := ladderBIZA(seed, true)
	payloadFill(p, blocks)
	p.Flush()
	return timed(func() int {
		stripes := 0
		var rebuildErr error
		finished := false
		p.ReplaceDevicePaced(0, core.RebuildControl{
			OnProgress: func(done, total int) { stripes = total },
		}, func(err error) { rebuildErr, finished = err, true })
		p.Eng.Run()
		if !finished || rebuildErr != nil || stripes == 0 {
			fatalf("ladder: rebuild: finished %v, %d stripes, error %v", finished, stripes, rebuildErr)
		}
		return stripes
	})
}

// nullDevice completes every request after a fixed virtual latency and
// does nothing else, which isolates the layer above it.
type nullDevice struct {
	eng    *sim.Engine
	blocks int64
}

const nullLatency = 10 * sim.Microsecond

func (d *nullDevice) BlockSize() int { return blockSize }
func (d *nullDevice) Blocks() int64  { return d.blocks }
func (d *nullDevice) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	d.eng.After(nullLatency, func() { done(blockdev.WriteResult{Latency: nullLatency}) })
}
func (d *nullDevice) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	d.eng.After(nullLatency, func() { done(blockdev.ReadResult{Latency: nullLatency}) })
}
func (d *nullDevice) Trim(lba int64, nblocks int) {}
func (d *nullDevice) StoresData() bool            { return false }

// volumeOps drives eight weighted volumes of one manager, QoS on, 4 KiB
// reads and writes at depth 4 each.
func volumeOps(seed uint64, n int) body {
	eng := sim.NewEngine()
	m := volume.New(eng, &nullDevice{eng: eng, blocks: 1 << 20}, volume.Config{MaxInflight: 8})
	const vols, volBlocks = 8, 4096
	var vs []*volume.Volume
	for i := 0; i < vols; i++ {
		v, err := m.Open(fmt.Sprintf("v%d", i), volume.Options{Blocks: volBlocks, QoS: volume.QoS{Weight: 1 + i}})
		if err != nil {
			fatalf("ladder: %v", err)
		}
		vs = append(vs, v)
	}
	return timed(func() int {
		left := n
		var failed int
		for i, v := range vs {
			v := v
			g := newRNG(subSeed(seed, uint64(i)))
			var issue func()
			wdone := func(r blockdev.WriteResult) {
				if r.Err != nil {
					failed++
				}
				issue()
			}
			rdone := func(r blockdev.ReadResult) {
				if r.Err != nil {
					failed++
				}
				issue()
			}
			issue = func() {
				if left == 0 {
					return
				}
				left--
				if lba := g.intn(volBlocks); g.intn(2) == 0 {
					v.Read(lba, 1, rdone)
				} else {
					v.Write(lba, 1, nil, wdone)
				}
			}
			for d := 0; d < 4; d++ {
				issue()
			}
		}
		eng.Run()
		if failed != 0 || left != 0 {
			fatalf("ladder: volume ops: %d failed, %d not issued", failed, left)
		}
		return n
	})
}

// mdraidOps drives mdraid over four null members: random 4 KiB, half
// reads, depth 32.
func mdraidOps(seed uint64, n int) body {
	eng := sim.NewEngine()
	var members []blockdev.Device
	for i := 0; i < 4; i++ {
		members = append(members, &nullDevice{eng: eng, blocks: 1 << 18})
	}
	md, err := mdraid.New(eng, members, mdraid.DefaultConfig(), nil)
	if err != nil {
		fatalf("ladder: %v", err)
	}
	g := newRNG(subSeed(seed, streamLoad))
	const span = 1 << 16
	return timed(func() int {
		var t tally
		left := n
		closedLoop(eng, md, 32, &t, false, func(s *ioSlot) bool {
			if left == 0 {
				return false
			}
			left--
			s.lba, s.blocks, s.read = g.intn(span), 1, g.intn(2) == 0
			return true
		}, nil)
		mustAllOK("mdraid ops", &t)
		return n
	})
}
