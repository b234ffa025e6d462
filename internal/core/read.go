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

// Read implements blockdev.Device: BMT lookups, coalesced per-zone reads,
// and parity reconstruction for chunks on failed members.
func (c *Core) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	start := c.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > c.Blocks() {
		if done != nil {
			c.eng.After(sim.Microsecond, func() {
				done(blockdev.ReadResult{Err: blockdev.ErrOutOfRange, Latency: c.eng.Now() - start})
			})
		}
		return
	}
	bs := c.chunkBytes()
	var span obs.SpanID
	if c.tr != nil {
		span = c.tr.SpanBegin(int64(start), obs.LayerBIZA, obs.OpRead, -1, -1, lba, int64(nblocks))
		innerDone := done
		done = func(r blockdev.ReadResult) {
			c.tr.SpanEnd(span, int64(c.eng.Now()), r.Err != nil)
			if innerDone != nil {
				innerDone(r)
			}
		}
	}
	var buf []byte
	if c.StoresData() {
		buf = make([]byte, int64(nblocks)*bs)
	}
	// Coalesce per (device, zone): chunks of a striped logical range land
	// at consecutive zone offsets on each member even though their buffer
	// positions interleave, so each run carries its blocks' buffer indices
	// for de-striping (one device command per run, the block layer's
	// request merging).
	type runT struct {
		dev, zone int
		off       int64
		bufIdx    []int64
	}
	var runs []runT
	var degraded []int64 // buffer block indices needing reconstruction
	for i := int64(0); i < int64(nblocks); i++ {
		e := c.bmt.Get(lba + i)
		if !e.mapped() {
			continue // unwritten reads as zeros
		}
		at := e.loc()
		if c.failed[at.dev] {
			degraded = append(degraded, i)
			continue
		}
		// Only the latest run of a (device, zone) can take the block; a read
		// spans a handful of runs, so look for it from the back.
		var last *runT
		for li := len(runs) - 1; li >= 0 && last == nil; li-- {
			if runs[li].dev == at.dev && runs[li].zone == at.zone {
				last = &runs[li]
			}
		}
		if last != nil && last.off+int64(len(last.bufIdx)) == at.off {
			last.bufIdx = append(last.bufIdx, i)
			continue
		}
		runs = append(runs, runT{dev: at.dev, zone: at.zone, off: at.off, bufIdx: []int64{i}})
	}
	outstanding := len(runs) + len(degraded)
	if outstanding == 0 {
		if done != nil {
			c.eng.After(sim.Microsecond, func() {
				done(blockdev.ReadResult{Data: buf, Latency: c.eng.Now() - start})
			})
		}
		return
	}
	var firstErr error
	finishOne := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		outstanding--
		if outstanding == 0 && done != nil {
			done(blockdev.ReadResult{Err: firstErr, Data: buf, Latency: c.eng.Now() - start})
		}
	}
	for _, r := range runs {
		r := r
		c.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
		// A run whose blocks are neighbours in the caller's buffer too (any
		// single block is) gathers straight into it; a striped one goes
		// through pool scratch and is de-striped below.
		n := int64(len(r.bufIdx))
		var dst, scratch []byte
		if buf != nil {
			if first := r.bufIdx[0]; r.bufIdx[n-1]-first == n-1 {
				dst = buf[first*bs : (first+n)*bs]
			} else {
				scratch = c.pool.Alloc(int(n * bs))
				dst = scratch
			}
		}
		c.devs[r.dev].q.ReadInto(r.zone, r.off, int(n), dst, false, func(res zns.ReadResult) {
			if res.Err != nil {
				c.pool.Free(scratch)
				c.noteIOError(r.dev, res.Err)
				if storerr.Reconstructable(res.Err) {
					// The member died (or the blocks rotted) under this
					// read: serve each block through parity instead.
					outstanding += len(r.bufIdx) - 1
					for _, idx := range r.bufIdx {
						idx := idx
						c.reconstructChunk(lba+idx, func(data []byte, err error) {
							if data != nil && buf != nil {
								copy(buf[idx*bs:(idx+1)*bs], data)
							}
							finishOne(err)
						})
					}
					return
				}
				finishOne(res.Err)
				return
			}
			if scratch != nil {
				for j, idx := range r.bufIdx {
					copy(buf[idx*bs:(idx+1)*bs], scratch[int64(j)*bs:(int64(j)+1)*bs])
				}
				c.pool.Free(scratch)
			}
			finishOne(nil)
		})
	}
	for _, i := range degraded {
		i := i
		c.reconstructChunk(lba+i, func(data []byte, err error) {
			if data != nil && buf != nil {
				copy(buf[i*bs:], data)
			}
			finishOne(err)
		})
	}
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
		c.noteReconstruct(at.dev, lbn, err)
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
		c.devs[f.p.dev].q.ReadInto(f.p.zone, f.p.off, 1, f.dst, false, func(r zns.ReadResult) {
			if r.Err != nil {
				c.noteIOError(f.p.dev, r.Err)
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
