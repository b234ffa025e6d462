// Package trace models block I/O traces: the record format, exact
// reuse-distance analysis (the paper's §3.1 metric), and a closed-loop
// replayer that drives any block device in virtual time.
package trace

import (
	"biza/internal/blockdev"
	"biza/internal/metrics"
	"biza/internal/sim"
)

// Op is one trace record.
type Op struct {
	Write  bool
	LBA    int64
	Blocks int
}

// Trace is an ordered stream of operations over a block address space.
type Trace struct {
	Name      string
	BlockSize int
	Ops       []Op
}

// Footprint reports the highest block touched plus one.
func (t *Trace) Footprint() int64 {
	var max int64
	for _, op := range t.Ops {
		if end := op.LBA + int64(op.Blocks); end > max {
			max = end
		}
	}
	return max
}

// Stats summarizes a trace (Table 6's characterization columns).
type Stats struct {
	Ops           int
	WriteRatio    float64 // fraction of operations that write
	AvgReadBytes  float64
	AvgWriteBytes float64
	WrittenBytes  uint64
	ReadBytes     uint64
}

// Characterize computes summary statistics.
func (t *Trace) Characterize() Stats {
	var s Stats
	var reads, writes int
	for _, op := range t.Ops {
		bytes := uint64(op.Blocks) * uint64(t.BlockSize)
		if op.Write {
			writes++
			s.WrittenBytes += bytes
		} else {
			reads++
			s.ReadBytes += bytes
		}
	}
	s.Ops = len(t.Ops)
	if s.Ops > 0 {
		s.WriteRatio = float64(writes) / float64(s.Ops)
	}
	if reads > 0 {
		s.AvgReadBytes = float64(s.ReadBytes) / float64(reads)
	}
	if writes > 0 {
		s.AvgWriteBytes = float64(s.WrittenBytes) / float64(writes)
	}
	return s
}

// WriteReuseDistances computes, for every write to a block that was
// written before, the bytes written between the two visits — the paper's
// reuse-distance definition (§3.1). Returns one sample per re-write.
func (t *Trace) WriteReuseDistances() []int64 {
	lastSeen := make(map[int64]uint64)
	var written uint64
	var out []int64
	bs := uint64(t.BlockSize)
	for _, op := range t.Ops {
		if !op.Write {
			continue
		}
		for i := 0; i < op.Blocks; i++ {
			blk := op.LBA + int64(i)
			if prev, ok := lastSeen[blk]; ok {
				out = append(out, int64(written-prev))
			}
			lastSeen[blk] = written
			written += bs
		}
	}
	return out
}

// ReuseCDF evaluates the reuse-distance CDF at the given byte thresholds
// (Fig. 4's curve).
func (t *Trace) ReuseCDF(thresholds []int64) []float64 {
	return metrics.CDF(t.WriteReuseDistances(), thresholds)
}

// FractionBeyond reports the fraction of reuse distances exceeding the
// threshold (§5.4 quotes 8.3% for casa and 90.2% for tencent at 56 MB).
func (t *Trace) FractionBeyond(threshold int64) float64 {
	ds := t.WriteReuseDistances()
	if len(ds) == 0 {
		return 0
	}
	n := 0
	for _, d := range ds {
		if d > threshold {
			n++
		}
	}
	return float64(n) / float64(len(ds))
}

// Result is a replay outcome.
type Result struct {
	Ops        uint64
	Bytes      uint64
	WriteBytes uint64
	Elapsed    sim.Time
	WriteLat   *metrics.Histogram
	ReadLat    *metrics.Histogram
	Errors     uint64
}

// Throughput reports overall bytes moved per second.
func (r Result) Throughput() metrics.Throughput {
	return metrics.Throughput{Bytes: r.Bytes, Elapsed: r.Elapsed}
}

// Replay drives the trace against dev with a closed loop of depth
// outstanding operations, in record order, and reports totals.
func Replay(eng *sim.Engine, dev blockdev.Device, t *Trace, depth int) Result {
	if depth < 1 {
		depth = 1
	}
	res := Result{WriteLat: metrics.NewHistogram(), ReadLat: metrics.NewHistogram()}
	next := 0
	capBlocks := dev.Blocks()
	start := eng.Now()
	var issue func()
	issue = func() {
		for next < len(t.Ops) {
			op := t.Ops[next]
			next++
			lba := op.LBA % capBlocks
			if lba+int64(op.Blocks) > capBlocks {
				lba = capBlocks - int64(op.Blocks)
				if lba < 0 {
					continue
				}
			}
			if op.Write {
				dev.Write(lba, op.Blocks, nil, func(r blockdev.WriteResult) {
					if r.Err != nil {
						res.Errors++
					} else {
						res.Ops++
						res.Bytes += uint64(op.Blocks) * uint64(t.BlockSize)
						res.WriteBytes += uint64(op.Blocks) * uint64(t.BlockSize)
						res.WriteLat.Record(r.Latency)
					}
					issue()
				})
			} else {
				dev.Read(lba, op.Blocks, func(r blockdev.ReadResult) {
					if r.Err != nil {
						res.Errors++
					} else {
						res.Ops++
						res.Bytes += uint64(op.Blocks) * uint64(t.BlockSize)
						res.ReadLat.Record(r.Latency)
					}
					issue()
				})
			}
			return
		}
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	eng.Run()
	res.Elapsed = eng.Now() - start
	return res
}
