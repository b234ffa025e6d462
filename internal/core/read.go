package core

import (
	"errors"
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/cpumodel"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// ErrUnrecoverable reports a degraded read that cannot be reconstructed.
var ErrUnrecoverable = errors.New("core: chunk unrecoverable (stripe incomplete)")

// SetDeviceFailed marks a member failed; subsequent reads of its chunks
// reconstruct from the surviving stripe members (degraded mode).
func (c *Core) SetDeviceFailed(dev int, failed bool) error {
	if dev < 0 || dev >= len(c.devs) {
		return fmt.Errorf("core: device %d out of range: %w", dev, storerr.ErrNotFound)
	}
	c.failed[dev] = failed
	return nil
}

// readRec is one block-interface Read in flight: its runs and degraded
// blocks report here and the last one answers the caller. A recycled record
// (getRead in pool.go).
type readRec struct {
	c           *Core
	live        bool
	lba         int64
	start       sim.Time
	span        obs.SpanID
	buf         []byte // the result; nil in performance mode
	outstanding int    // runs and reconstructions to come, plus Read itself while it submits
	firstErr    error
	done        func(blockdev.ReadResult)
	// runs[:nruns] are this read's device commands; the slots beyond, and
	// both slices' capacity, are kept from earlier reads.
	runs     []*readRun
	nruns    int
	degraded []int64 // buffer block indices needing reconstruction
}

// readRun is one slot of a read record: blocks at consecutive offsets of one
// zone, read by one device command (the block layer's request merging).
// Chunks of a striped logical range are neighbours on each member even though
// their buffer positions interleave, so it carries their buffer indices.
type readRun struct {
	rd        *readRec
	dev, zone int
	off       int64
	bufIdx    []int64
	scratch   []byte               // de-striping scratch, or nil
	onDone    func(zns.ReadResult) // r.complete, bound once per slot
}

// Read implements blockdev.Device: BMT lookups, coalesced per-zone reads,
// and parity reconstruction for chunks on failed members.
func (c *Core) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	rd := c.getRead()
	rd.lba, rd.start, rd.done, rd.outstanding = lba, c.eng.Now(), done, 1
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > c.Blocks() {
		rd.firstErr = blockdev.ErrOutOfRange
		rd.submitted()
		return
	}
	rd.span = c.tr.SpanBegin(int64(rd.start), obs.LayerBIZA, obs.OpRead, -1, -1, lba, int64(nblocks))
	bs := c.chunkBytes()
	if c.StoresData() {
		rd.buf = make([]byte, int64(nblocks)*bs)
	}
	for i := int64(0); i < int64(nblocks); i++ {
		e := c.bmt.Get(lba + i)
		if !e.mapped() {
			continue // unwritten reads as zeros
		}
		if at := e.loc(); c.failed[at.dev] {
			rd.degraded = append(rd.degraded, i)
		} else {
			rd.addBlock(at, i)
		}
	}
	rd.outstanding += rd.nruns + len(rd.degraded)
	for _, r := range rd.runs[:rd.nruns] {
		c.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
		// A run whose blocks are neighbours in the caller's buffer too (any
		// single block is) gathers straight into it; a striped one goes
		// through pool scratch and is de-striped on completion.
		n := int64(len(r.bufIdx))
		var dst []byte
		if rd.buf != nil {
			if first := r.bufIdx[0]; r.bufIdx[n-1]-first == n-1 {
				dst = rd.buf[first*bs : (first+n)*bs]
			} else {
				r.scratch = c.pool.Alloc(int(n * bs))
				dst = r.scratch
			}
		}
		c.devs[r.dev].q.ReadInto(r.zone, r.off, int(n), dst, false, r.onDone)
	}
	for _, i := range rd.degraded {
		rd.reconstruct(i)
	}
	rd.submitted()
}

// addBlock puts the block at buffer index i into the run it extends, or
// into a new one. Only the latest run of a (device, zone) can take it; a
// read spans a handful of runs, so look for it from the back.
func (rd *readRec) addBlock(at pa, i int64) {
	for li := rd.nruns - 1; li >= 0; li-- {
		if r := rd.runs[li]; r.dev == int(at.dev) && r.zone == int(at.zone) {
			if r.off+int64(len(r.bufIdx)) == at.off {
				r.bufIdx = append(r.bufIdx, i)
				return
			}
			break
		}
	}
	if rd.nruns == len(rd.runs) {
		r := &readRun{rd: rd}
		r.onDone = r.complete
		rd.runs = append(rd.runs, r)
	}
	r := rd.runs[rd.nruns]
	rd.nruns++
	r.dev, r.zone, r.off, r.scratch = int(at.dev), int(at.zone), at.off, nil
	r.bufIdx = append(r.bufIdx[:0], i)
}

// submitted drops the count Read holds on its own record while it submits.
// If that was the last — out of range, nothing mapped, or every block failed
// reconstruction on the spot — nothing asynchronous is left to answer, so the
// record is the event that does: no completion runs inside the call it answers.
func (rd *readRec) submitted() {
	if rd.outstanding--; rd.outstanding > 0 {
		return
	}
	if rd.done == nil && rd.span == 0 {
		rd.c.putRead(rd) // nobody to tell and no span to end
		return
	}
	rd.c.eng.AfterEvent(sim.Microsecond, rd, 0, 0)
}

// Fire implements sim.Handler for the deferred completion.
func (rd *readRec) Fire(_, _ sim.Time) { rd.finish() }

// finishOne counts one run or reconstruction done; the last answers.
func (rd *readRec) finishOne(err error) {
	if !rd.live {
		panic("core: read record used after put")
	}
	if err != nil && rd.firstErr == nil {
		rd.firstErr = err
	}
	if rd.outstanding--; rd.outstanding == 0 {
		rd.finish()
	}
}

// finish answers the caller. The record goes back first: the callback may
// issue the next Read, which is free to take it.
func (rd *readRec) finish() {
	c := rd.c
	now := c.eng.Now()
	c.tr.SpanEnd(rd.span, int64(now), rd.firstErr != nil)
	done, res := rd.done, blockdev.ReadResult{Err: rd.firstErr, Data: rd.buf, Latency: now - rd.start}
	c.putRead(rd)
	if done != nil {
		done(res)
	}
}

// complete is the run's device completion: de-stripe and count it done.
func (r *readRun) complete(res zns.ReadResult) {
	rd := r.rd
	if !rd.live {
		panic("core: read record used after put")
	}
	c, bs := rd.c, rd.c.chunkBytes()
	if res.Err != nil {
		c.pool.Free(r.scratch)
		c.noteIOError(r.dev, res.Err)
		if storerr.Reconstructable(res.Err) {
			// The member died (or the blocks rotted) under this read: serve
			// each block through parity instead. One that fails on the spot
			// may end the read, and the caller's callback may reuse this slot
			// for its next one, so the loop runs over a copy of the indices.
			idxs := append([]int64(nil), r.bufIdx...)
			rd.outstanding += len(idxs) - 1
			for _, idx := range idxs {
				rd.reconstruct(idx)
			}
			return
		}
		rd.finishOne(res.Err)
		return
	}
	if r.scratch != nil {
		for j, idx := range r.bufIdx {
			copy(rd.buf[idx*bs:(idx+1)*bs], r.scratch[int64(j)*bs:(int64(j)+1)*bs])
		}
		c.pool.Free(r.scratch)
	}
	rd.finishOne(nil)
}

// reconstruct serves the block at buffer index idx through parity: the cold
// path, which no fault-free run reaches, so it stays on closures.
func (rd *readRec) reconstruct(idx int64) {
	buf, bs := rd.buf, rd.c.chunkBytes()
	rd.c.reconstructChunk(rd.lba+idx, func(data []byte, err error) {
		if data != nil && buf != nil {
			copy(buf[idx*bs:(idx+1)*bs], data)
		}
		rd.finishOne(err)
	})
}

// reconstructChunk rebuilds one chunk of a failed member from the
// stripe's surviving shards via the erasure code (plain XOR for RAID 5,
// Reed-Solomon beyond). Stale sibling slots still feed parity, so they
// are read too; chunk positions a short stripe never filled are
// zero shards by construction.
func (c *Core) reconstructChunk(lbn int64, done func([]byte, error)) {
	e := c.bmt.Get(lbn)
	if !e.mapped() {
		done(nil, nil)
		return
	}
	at := e.loc()
	inner := done
	done = func(data []byte, err error) {
		c.noteReconstruct(int(at.dev), lbn, err)
		inner(data, err)
	}
	se := c.smt.Get(e.sn)
	if se == nil {
		done(nil, ErrUnrecoverable)
		return
	}
	k, m := c.nData, len(se.parity)
	shards := make([][]byte, k+m)
	// Shards that are zero by construction (and, in performance mode, every
	// shard fetched without content) alias one zeroed block; the fetched
	// ones are gathered into pool scratch. All of it goes back once the
	// code has run: only the rebuilt shard leaves, and that one is the
	// coder's own allocation.
	var zero []byte
	zeroShard := func() []byte {
		if zero == nil {
			zero = c.pool.AllocZero(c.blockSize)
		}
		return zero
	}
	type fetch struct {
		idx int
		p   pa
		dst []byte
	}
	var fetches []fetch
	target := -1
	for i := 0; i < k; i++ {
		if i >= len(se.chunks) {
			shards[i] = zeroShard() // never written
			continue
		}
		p := se.chunks[i]
		if p == at {
			target = i
			continue // the missing shard
		}
		if p.dev < 0 {
			shards[i] = zeroShard()
			continue
		}
		if c.failed[p.dev] {
			continue // another missing shard; RS may still recover
		}
		fetches = append(fetches, fetch{idx: i, p: p})
	}
	if target < 0 {
		c.pool.Free(zero)
		done(nil, ErrUnrecoverable)
		return
	}
	for r := 0; r < m; r++ {
		p := se.parity[r]
		if p.dev < 0 || c.failed[p.dev] {
			continue
		}
		fetches = append(fetches, fetch{idx: k + r, p: p})
	}
	remaining := len(fetches)
	if remaining == 0 {
		c.pool.Free(zero)
		done(nil, ErrUnrecoverable)
		return
	}
	var firstErr error
	finish := func() {
		var data []byte
		err := firstErr
		if err == nil {
			if c.coder.Reconstruct(shards) != nil {
				err = ErrUnrecoverable
			} else {
				data = shards[target]
			}
		}
		for _, f := range fetches {
			c.pool.Free(f.dst)
		}
		c.pool.Free(zero)
		done(data, err)
	}
	for i := range fetches {
		f := &fetches[i]
		f.dst = c.readBuf(1)
		c.devs[f.p.dev].q.ReadInto(int(f.p.zone), f.p.off, 1, f.dst, false, func(r zns.ReadResult) {
			if r.Err != nil {
				c.noteIOError(int(f.p.dev), r.Err)
				// A reconstructable fetch failure just leaves this shard
				// missing — the code may still recover from the rest.
				if !storerr.Reconstructable(r.Err) && firstErr == nil {
					firstErr = r.Err
				}
			} else if f.dst != nil {
				shards[f.idx] = f.dst
			} else {
				shards[f.idx] = zeroShard()
			}
			remaining--
			if remaining == 0 {
				finish()
			}
		})
	}
}
