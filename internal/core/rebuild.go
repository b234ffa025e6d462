package core

import (
	"fmt"
	"slices"

	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/storerr"
)

// RebuildControl paces a ReplaceDevicePaced rebuild against foreground
// latency. The rebuild dissolves the replaced member's stripes in batches
// of StripesPerStep, idling StepGap of virtual time between batches, so
// foreground I/O drains the device queues the rebuild would otherwise
// saturate. The zero value disables pacing: every stripe dissolves at
// once (the fastest rebuild, and the worst foreground tail).
type RebuildControl struct {
	// StripesPerStep bounds the stripes dissolving concurrently per step
	// (<= 0 dissolves everything in one step).
	StripesPerStep int
	// StepGap is the virtual pause between steps.
	StepGap sim.Time
	// OnProgress, when set, fires after each completed step with the
	// stripes rebuilt so far out of the rebuild's total.
	OnProgress func(done, total int)
}

// ReplaceDevicePaced swaps a failed member for a fresh device and rebuilds
// redundancy: every stripe with a slot on the replaced member is
// dissolved — its live chunks are re-homed into new stripes across the
// full array (chunks that lived on the dead member are reconstructed from
// the survivors via the erasure code). When done fires, no live data
// references the replaced member and full fault tolerance is restored.
//
// The log-structured rebuild mirrors how BIZA's GC migrates data, so it
// reuses the same dissolution machinery rather than copying block-for-
// block onto the spare (the spare simply joins the allocation rotation).
// ctl paces it: stripes dissolve StripesPerStep at a time with StepGap of
// virtual idle between batches, and the zero RebuildControl dissolves them
// all at once. Stripe order is deterministic (ascending stripe number), so
// the same control settings replay bit-identically.
func (c *Core) ReplaceDevicePaced(dev int, q *nvme.Queue, ctl RebuildControl, done func(error)) {
	fail := func(err error) {
		if done != nil {
			c.eng.After(0, func() { done(err) })
		}
	}
	if dev < 0 || dev >= len(c.devs) {
		fail(fmt.Errorf("core: device %d out of range: %w", dev, storerr.ErrNotFound))
		return
	}
	ncfg := q.Device().Config()
	ocfg := c.devs[dev].q.Device().Config()
	if ncfg.ZoneBlocks != ocfg.ZoneBlocks || ncfg.NumZones != ocfg.NumZones ||
		ncfg.BlockSize != ocfg.BlockSize || ncfg.ZRWABlocks != ocfg.ZRWABlocks {
		fail(fmt.Errorf("core: replacement device geometry mismatch: %w", storerr.ErrBadArgument))
		return
	}
	ds, err := newDevState(c, dev, q)
	if err != nil {
		fail(err)
		return
	}
	ds.diagnose(c.cfg.DiagnoseZones)
	old := c.memberState(dev)
	c.devs[dev] = ds
	// Until the rebuild completes, reads of chunks that lived on the old
	// member reconstruct from the survivors. The fresh device itself is
	// alive: clear the death flag so writes land on it again.
	c.dead[dev] = false
	c.failed[dev] = true
	c.rebuilding[dev] = true
	if c.memberState(dev) != old {
		c.traceMemberState(dev, old)
	}
	finishRebuild := func() {
		prev := c.memberState(dev)
		c.failed[dev] = false
		c.rebuilding[dev] = false
		c.traceMemberState(dev, prev)
	}

	// Every stripe with a data or parity slot on the member needs
	// dissolution, in ascending stripe number: the SMT's own order.
	onMember := func(p pa) bool { return int(p.dev) == dev }
	var sns []int64
	c.smt.Range(func(sn int64, se *smtEntry) bool {
		if slices.ContainsFunc(se.slots(), onMember) {
			sns = append(sns, sn)
		}
		return true
	})

	total := len(sns)
	if total == 0 {
		finishRebuild()
		fail(nil)
		return
	}
	per := ctl.StripesPerStep
	if per <= 0 || per > total {
		per = total
	}
	rebuilt := 0
	var step func()
	step = func() {
		batch := sns
		if len(batch) > per {
			batch = sns[:per]
		}
		sns = sns[len(batch):]
		inBatch := len(batch)
		for _, sn := range batch {
			c.dissolveStripe(sn, func() {
				inBatch--
				rebuilt++
				if inBatch > 0 {
					return
				}
				if ctl.OnProgress != nil {
					ctl.OnProgress(rebuilt, total)
				}
				if len(sns) == 0 {
					finishRebuild()
					if done != nil {
						done(nil)
					}
					return
				}
				if ctl.StepGap > 0 {
					c.eng.After(ctl.StepGap, step)
				} else {
					step()
				}
			})
		}
	}
	step()
}
