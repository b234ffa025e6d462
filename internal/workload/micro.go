package workload

import (
	"biza/internal/blockdev"
	"biza/internal/metrics"
	"biza/internal/sim"
)

// Pattern is an access pattern.
type Pattern uint8

// Access patterns.
const (
	Seq Pattern = iota
	Rand
)

func (p Pattern) String() string {
	if p == Seq {
		return "seq"
	}
	return "rand"
}

// MicroSpec describes an fio-style closed-loop microbenchmark: a fixed
// request size and pattern at a fixed queue depth for a virtual duration
// (the paper uses one job, iodepth 32, sizes 4-192 KiB).
type MicroSpec struct {
	Pattern    Pattern
	Read       bool
	SizeBlocks int
	IODepth    int
	Duration   sim.Time
	SpanBlocks int64 // address space to exercise; 0 = whole device
	Seed       uint64
	// Pooled makes writes carry real payloads drawn from the device's
	// unified buffer pool (blockdev.BufWriter), exercising the zero-copy
	// ownership-transfer path instead of the data=nil control path.
	// Ignored for reads and for devices without a pool.
	Pooled bool
}

// MicroResult reports a measured run.
type MicroResult struct {
	Ops     uint64
	Bytes   uint64
	Elapsed sim.Time
	Lat     *metrics.Histogram
	Errors  uint64
}

// Throughput reports measured bytes/second.
func (r MicroResult) Throughput() metrics.Throughput {
	return metrics.Throughput{Bytes: r.Bytes, Elapsed: r.Elapsed}
}

// RunMicro drives dev with the spec and returns the requests completed
// within its duration. The loop is closed: IODepth requests stay in flight.
func RunMicro(eng *sim.Engine, dev blockdev.Device, spec MicroSpec) MicroResult {
	if spec.IODepth < 1 {
		spec.IODepth = 1
	}
	span := spec.SpanBlocks
	if span == 0 || span > dev.Blocks() {
		span = dev.Blocks()
	}
	size := int64(spec.SizeBlocks)
	if size < 1 {
		size = 1
	}
	rng := sim.NewRNG(spec.Seed ^ 0x4f10)
	res := MicroResult{Lat: metrics.NewHistogram()}
	var cursor int64
	start := eng.Now()
	deadline := start + spec.Duration

	nextLBA := func() int64 {
		if spec.Pattern == Seq {
			lba := cursor
			cursor += size
			if cursor > span {
				cursor = size
				lba = 0
			}
			return lba
		}
		slots := span / size
		if slots < 1 {
			return 0
		}
		return rng.Int63n(slots) * size
	}

	var issue func()
	complete := func(err error, lat sim.Time) {
		bytes := uint64(size) * uint64(dev.BlockSize())
		switch {
		case err != nil:
			res.Errors++
		case eng.Now() <= deadline:
			res.Ops++
			res.Bytes += bytes
			res.Lat.Record(lat)
		}
		if eng.Now() < deadline {
			issue()
		}
	}
	var bw blockdev.BufWriter
	if spec.Pooled && !spec.Read {
		bw, _ = dev.(blockdev.BufWriter)
	}
	bs := dev.BlockSize()
	issue = func() {
		lba := nextLBA()
		switch {
		case spec.Read:
			dev.Read(lba, int(size), func(r blockdev.ReadResult) { complete(r.Err, r.Latency) })
		case bw != nil:
			// Zero-copy submission: the payload is pooled, stamped with a
			// deterministic pattern, and handed over by reference — the
			// one reference Get returned transfers to the engine.
			b := bw.Pool().Get(int(size)*bs, 0)
			fill := b.Bytes()
			stamp := byte(uint64(lba) ^ spec.Seed)
			for i := range fill {
				fill[i] = stamp
			}
			bw.WriteBuf(lba, int(size), b, func(r blockdev.WriteResult) { complete(r.Err, r.Latency) })
		default:
			dev.Write(lba, int(size), nil, func(r blockdev.WriteResult) { complete(r.Err, r.Latency) })
		}
	}
	for i := 0; i < spec.IODepth; i++ {
		issue()
	}
	eng.Run()
	end := eng.Now()
	if end > deadline {
		end = deadline
	}
	res.Elapsed = end - start
	if res.Elapsed <= 0 {
		res.Elapsed = 1
	}
	return res
}

// Precondition sequentially writes the span once so later reads hit
// mapped data.
func Precondition(eng *sim.Engine, dev blockdev.Device, spanBlocks int64, chunk int) {
	if spanBlocks == 0 || spanBlocks > dev.Blocks() {
		spanBlocks = dev.Blocks()
	}
	if chunk < 1 {
		chunk = 16
	}
	var next int64
	depth := 16
	var issue func()
	issue = func() {
		if next+int64(chunk) > spanBlocks {
			return
		}
		lba := next
		next += int64(chunk)
		dev.Write(lba, chunk, nil, func(blockdev.WriteResult) { issue() })
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	eng.Run()
}
