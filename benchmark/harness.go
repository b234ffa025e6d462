package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/metrics"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/stack"
)

// metric is one named number; its unit is BENCHMARK.json's.
type metric struct {
	Name  string
	Value float64
}

// tally accumulates what a repetition's user I/O did, in virtual time.
type tally struct {
	attempted uint64
	ok        uint64
	failed    uint64 // completed with an error
	bytes     uint64 // payload of the I/Os that completed without error
	lat       []int64
	errs      map[string]uint64
}

// complete records one finished user I/O; sample says whether its latency
// belongs to the workload's latency population.
func (t *tally) complete(nbytes int, lat sim.Time, err error, sample bool) {
	if err != nil {
		t.failed++
		t.noteErr(err.Error(), 1)
		return
	}
	t.ok++
	t.bytes += uint64(nbytes)
	if sample {
		t.lat = append(t.lat, lat)
	}
}

// noteErr counts n occurrences of an error text.
func (t *tally) noteErr(text string, n uint64) {
	if t.errs == nil {
		t.errs = map[string]uint64{}
	}
	t.errs[text] += n
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.bytes += o.bytes
	t.lat = append(t.lat, o.lat...)
	for k, v := range o.errs {
		t.noteErr(k, v)
	}
}

// rep is one repetition: a fresh platform built from the run's seed,
// preconditioned, driven through one timed window and dropped. The
// workload fills the sim-side fields; begin and end bracket the window.
type rep struct {
	seed uint64
	sc   *scale
	tr   *obs.Trace    // traced repetition only
	prof *bytes.Buffer // profiled repetition only: receives the window's CPU profile

	start, winStart, winEnd time.Time
	mallocs                 uint64
	buildNS                 []int64

	tally
	// p999 is set by a workload whose tail is not that of one pool
	// (baseline-mix); otherwise it is r.lat's.
	p999         int64
	virtualNS    int64
	wa           metrics.WriteAmp
	counters     []metric // layer-boundary counters in sim time (part of the digest)
	hostCounters []metric // layer-boundary numbers in host time
	retried      uint64   // resubmissions after an error (hot-rmw's client retries)
	unverified   uint64   // read-back blocks skipped because their last write failed
	checkErr     error    // output check that failed inside the workload
	keep         []any    // platforms, held until the live heap is read
}

// platform builds one stack on an engine of its own, timing the
// construction and attaching the repetition's trace.
func (r *rep) platform(kind stack.Kind, opts stack.Options) *stack.Platform {
	return r.platformOn(sim.NewEngine(), kind, opts)
}

// platformOn is platform on an existing engine.
func (r *rep) platformOn(eng *sim.Engine, kind stack.Kind, opts stack.Options) *stack.Platform {
	opts.Trace = r.tr
	t0 := time.Now()
	p, err := stack.NewOn(eng, kind, opts)
	r.buildNS = append(r.buildNS, time.Since(t0).Nanoseconds())
	if err != nil {
		fatalf("building %s: %v", kind, err)
	}
	r.keep = append(r.keep, p)
	return p
}

// begin opens the timed window.
func (r *rep) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs
	if r.prof != nil {
		if err := pprof.StartCPUProfile(r.prof); err != nil {
			fatalf("cpu profile: %v", err)
		}
	}
	r.winStart = time.Now()
}

// end closes the timed window.
func (r *rep) end() {
	r.winEnd = time.Now()
	if r.prof != nil {
		pprof.StopCPUProfile()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - r.mallocs
}

func (r *rep) windowNS() int64 { return r.winEnd.Sub(r.winStart).Nanoseconds() }

// count appends a sim-time boundary counter.
func (r *rep) count(name string, v float64) {
	r.counters = append(r.counters, metric{name, v})
}

// hostCount appends a host-time boundary number.
func (r *rep) hostCount(name string, v float64) {
	r.hostCounters = append(r.hostCounters, metric{name, v})
}

// incomplete reports user I/Os that never completed although the event
// queue drained; they count as failed.
func (r *rep) incomplete() uint64 { return r.attempted - r.ok - r.failed }

// percentile returns the nearest-rank p-quantile of sorted (p in (0,1]).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// simView is every sim-time number of a repetition; repetitions of one
// run must agree on all of it, which the digest checks in one comparison.
type simView struct {
	attempted, failed uint64
	bytes             uint64
	virtualNS         int64
	samples           int
	p50, p999         int64
	wa                metrics.WriteAmp
	digest            uint64
}

// view sorts the latency samples and hashes every sim-time number.
func (r *rep) view() simView {
	slices.Sort(r.lat)
	if r.p999 == 0 {
		r.p999 = percentile(r.lat, 0.999)
	}
	v := simView{
		attempted: r.attempted,
		failed:    r.failed + r.incomplete(),
		bytes:     r.bytes,
		virtualNS: r.virtualNS,
		samples:   len(r.lat),
		p50:       percentile(r.lat, 0.5),
		p999:      r.p999,
		wa:        r.wa,
	}
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, x := range []uint64{r.attempted, r.ok, r.failed, r.bytes, uint64(r.virtualNS),
		r.wa.UserBytes, r.wa.FlashDataBytes, r.wa.FlashParityBytes, r.wa.GCMigratedBytes,
		r.retried, r.unverified, uint64(r.p999)} {
		put(x)
	}
	for _, l := range r.lat {
		put(uint64(l))
	}
	for _, c := range r.counters {
		h.Write([]byte(c.Name))
		put(math.Float64bits(c.Value))
	}
	v.digest = h.Sum64()
	return v
}

// ioSlot is one in-flight position of a closed loop. The generator fills
// the request fields before each I/O; the completion closures are made
// once per slot so a steady-state I/O allocates nothing in the benchmark.
type ioSlot struct {
	lba     int64
	blocks  int
	read    bool
	payload *buf.Buf // non-nil: write handed over by reference (WriteBuf)
	tag     uint64   // generator's own bookkeeping (e.g. the stamp written)
	start   sim.Time // when the user I/O was first submitted
	tries   int      // resubmissions of this user I/O so far
}

// closedLoop keeps depth I/Os in flight on dev: each slot draws its next
// request from gen as soon as its previous one completes, until gen
// reports there are no more, and the call returns once the engine has
// drained. after, if non-nil, sees every completion before the slot is
// reused and may ask for the same request to be submitted again (a client
// retrying an error); latency runs from the first submission to the last
// completion, as that client sees it.
func closedLoop(eng *sim.Engine, dev blockdev.Device, depth int, t *tally, sample bool,
	gen func(*ioSlot) bool, after func(*ioSlot, error) (retry bool)) {
	bs := dev.BlockSize()
	bw, _ := dev.(blockdev.BufWriter)
	for i := 0; i < depth; i++ {
		s := &ioSlot{}
		var submit, issue func()
		finish := func(err error) {
			if after != nil && after(s, err) {
				s.tries++
				submit()
				return
			}
			t.complete(s.blocks*bs, eng.Now()-s.start, err, sample)
			issue()
		}
		wdone := func(r blockdev.WriteResult) { finish(r.Err) }
		rdone := func(r blockdev.ReadResult) { finish(r.Err) }
		submit = func() {
			switch {
			case s.read:
				dev.Read(s.lba, s.blocks, rdone)
			case s.payload != nil:
				bw.WriteBuf(s.lba, s.blocks, s.payload, wdone)
			default:
				dev.Write(s.lba, s.blocks, nil, wdone)
			}
		}
		issue = func() {
			if !gen(s) {
				return
			}
			t.attempted++
			s.start, s.tries = eng.Now(), 0
			submit()
		}
		issue()
	}
	eng.Run()
}

// seqFill writes [0, blocks) once in chunk-block sequential writes at
// depth 16 — the preconditioning every workload with reads starts from.
// Failures are fatal: a platform that cannot take its fill measures nothing.
func seqFill(eng *sim.Engine, dev blockdev.Device, blocks int64, chunk int) {
	var t tally
	var next int64
	closedLoop(eng, dev, 16, &t, false, func(s *ioSlot) bool {
		if next+int64(chunk) > blocks {
			return false
		}
		s.lba, s.blocks = next, chunk
		next += int64(chunk)
		return true
	}, nil)
	if t.failed != 0 || t.ok != t.attempted {
		fatalf("preconditioning: %d of %d writes failed or never completed: %v",
			t.attempted-t.ok, t.attempted, t.errs)
	}
}

// flashProbe reads the zns and nvme boundary counters of a repetition's
// platforms over its timed window. Channel busy time and the driver
// counters are cumulative since construction, so it snapshots them when
// the window opens.
type flashProbe struct {
	ps        []*stack.Platform
	busyW     []sim.Time // per channel, flattened over platforms and devices
	busyR     []sim.Time
	reordered uint64
	retries   uint64
}

func (fp *flashProbe) read() (busyW, busyR []sim.Time, reordered, retries uint64) {
	for _, p := range fp.ps {
		for _, q := range p.Queues() {
			reordered += q.Reordered()
			retries += q.Retries()
		}
		for _, d := range p.ZNSDevs {
			for ch := 0; ch < d.NumChannels(); ch++ {
				busyW = append(busyW, d.ChannelWriteBusy(ch))
				busyR = append(busyR, d.ChannelReadBusy(ch))
			}
		}
	}
	return
}

// probeFlash snapshots ps; call it after ResetAccounting, before begin.
func probeFlash(ps ...*stack.Platform) *flashProbe {
	fp := &flashProbe{ps: ps}
	fp.busyW, fp.busyR, fp.reordered, fp.retries = fp.read()
	return fp
}

// report appends the nvme.* and zns.* counters; call it after the final
// flush. windowNS is the virtual length of the window the channels could
// have been busy for.
func (fp *flashProbe) report(r *rep, windowNS int64) {
	busyW, busyR, reordered, retries := fp.read()
	var programmed, absorbed, erases, copied uint64
	for _, p := range fp.ps {
		for _, d := range p.ZNSDevs {
			st := d.Stats()
			programmed += st.TotalProgrammed()
			absorbed += st.AbsorbedBytes
			erases += st.Erases
			copied += st.BufCopiedBytes
		}
	}
	var wMean, wMax, rMean float64
	for i := range busyW {
		w := ratio(float64(busyW[i]-fp.busyW[i]), float64(windowNS))
		wMean += w
		wMax = math.Max(wMax, w)
		rMean += ratio(float64(busyR[i]-fp.busyR[i]), float64(windowNS))
	}
	if n := float64(len(busyW)); n > 0 {
		wMean /= n
		rMean /= n
	}
	r.count("nvme.reordered", float64(reordered-fp.reordered))
	r.count("nvme.retries", float64(retries-fp.retries))
	r.count("zns.programmed_bytes", float64(programmed))
	r.count("zns.absorbed_bytes", float64(absorbed))
	r.count("zns.absorb_ratio", ratio(float64(absorbed), float64(absorbed+programmed)))
	r.count("zns.erases", float64(erases))
	r.count("zns.buf_copied_bytes", float64(copied))
	r.count("zns.chan_write_busy_mean_share", wMean)
	r.count("zns.chan_write_busy_max_share", wMax)
	r.count("zns.chan_read_busy_mean_share", rMean)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fatalf(format string, args ...any) {
	panic(fatal(fmt.Sprintf(format, args...)))
}

// fatal is a benchmark failure carried by panic up to main, which prints
// it and exits non-zero without a result line.
type fatal string
