package main

import "biza/internal/sim"

// scale holds every size the workloads use. Shapes (access pattern, mix,
// depth, platform kind) are fixed in the workload code; only these sizes
// differ between the measured scale and the smoke test's.
type scale struct {
	name    string
	warmups int // untimed repetitions before the first timed one
	minReps int // timed repetitions however short --seconds is
	maxReps int
	// calLoops reference loops are timed on each side of every repetition
	// (see calibrate.go); 0 leaves host times as measured.
	calLoops int

	// seq-write
	seqZones      int   // zones per member device
	seqSpanBlocks int64 // span the sequential writer wraps over
	seqIOs        int   // 64 KiB writes per repetition

	// hot-rmw
	hotZones      int
	hotZoneBlocks int64
	hotZRWABlocks int64
	hotSetBlocks  int64 // the 80 % target
	hotSpanBlocks int64 // preconditioned span the other 20 % spread over
	hotWrites     int
	hotReadback   int // blocks sampled from the span on top of the whole hot set

	// tenant-mix
	tenZones    int
	tenDuration sim.Time
	tenInter    int // interactive tenants
	tenBatch    int // batch tenants (one aggressor is always added)

	// baseline-mix
	baseSpanBlocks int64 // phase A fills it with 64 KiB writes
	baseRandIOs    int   // phase B 4 KiB random I/Os

	// fleet-1shard
	fleetArrays     int
	fleetClients    int
	fleetDuration   sim.Time
	fleetSpanBlocks int64

	// ladder: operations per timed rung repetition, as a divisor of the
	// full count (1 = full).
	ladderDiv int

	// trace ring capacity (records) and span sampling for traced repetitions.
	traceCap     int
	traceSampleN int
}

// fullScale is the scale every number in BENCHMARK.json and README.md was
// taken at; sizes tuned on a 2-core box so that one repetition is about
// two seconds of host time.
var fullScale = scale{
	name:    "full",
	warmups: 2,
	minReps: 3,
	maxReps: 9,

	calLoops: 6,

	seqZones:      128,
	seqSpanBlocks: 1 << 30 / 4096,
	seqIOs:        36000,

	hotZones:      48,
	hotZoneBlocks: 2 << 20 / 4096,
	hotZRWABlocks: 128 << 10 / 4096,
	hotSetBlocks:  4 << 20 / 4096,
	hotSpanBlocks: 64 << 20 / 4096,
	hotWrites:     300000,
	hotReadback:   4096,

	tenZones:    64,
	tenDuration: 750 * sim.Millisecond,
	tenInter:    12,
	tenBatch:    11,

	baseSpanBlocks: 512 << 20 / 4096,
	baseRandIOs:    100000,

	fleetArrays:     48,
	fleetClients:    768,
	fleetDuration:   100 * sim.Millisecond,
	fleetSpanBlocks: 8 << 20 / 4096,

	ladderDiv: 1,

	traceCap:     1 << 18,
	traceSampleN: 4,
}

// tinyScale keeps the smoke test under a few seconds: same shapes, every
// count cut down, no warm-up.
var tinyScale = scale{
	name:    "tiny",
	warmups: 0,
	minReps: 2,
	maxReps: 2,

	seqZones:      16,
	seqSpanBlocks: 32 << 20 / 4096,
	seqIOs:        800,

	hotZones:      48,
	hotZoneBlocks: 2 << 20 / 4096,
	hotZRWABlocks: 128 << 10 / 4096,
	hotSetBlocks:  1 << 20 / 4096,
	hotSpanBlocks: 8 << 20 / 4096,
	hotWrites:     2500,
	hotReadback:   512,

	tenZones:    16,
	tenDuration: 6 * sim.Millisecond,
	tenInter:    4,
	tenBatch:    3,

	baseSpanBlocks: 16 << 20 / 4096,
	baseRandIOs:    2000,

	fleetArrays:     4,
	fleetClients:    32,
	fleetDuration:   2 * sim.Millisecond,
	fleetSpanBlocks: 2 << 20 / 4096,

	ladderDiv: 100,

	traceCap:     1 << 16,
	traceSampleN: 1,
}

func scaleByName(name string) *scale {
	switch name {
	case "full":
		s := fullScale
		return &s
	case "tiny":
		s := tinyScale
		return &s
	}
	return nil
}
