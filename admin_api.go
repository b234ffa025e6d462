package biza

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/core"
	"biza/internal/sim"
	"biza/internal/storerr"
)

// The array's administrative operations — power cuts and recovery, member
// failures, paced device replacement and scrubs — are plain methods. Each
// acts on the platform at once and, when the operation takes virtual time,
// drives the simulation until it finishes. While the array is crashed,
// every one but Recover fails with ErrCrashed.

// await starts op and drives the simulation until the event queue drains,
// returning what op reported, or ErrIncomplete if it never did.
func (a *Array) await(op func(done func(error))) error {
	err := ErrIncomplete
	op(func(e error) { err = e })
	a.p.Eng.Run()
	return err
}

// Crash cuts power: in-flight commands die with their driver queues and
// unacknowledged write-buffer contents are dropped (acknowledged ZRWA
// blocks harden, PLP-style); pending simulation events are NOT drained
// first (a power cut does not wait for outstanding work). I/O fails with
// ErrCrashed until Recover succeeds; a second Crash fails with
// storerr.ErrWrongState. BIZA kinds only.
func (a *Array) Crash() error { return a.p.Crash() }

// Recover drives the simulation until the OOB scan completes: fresh driver
// queues attach to the surviving devices and the mapping tables are
// rebuilt from the per-block OOB records. All acknowledged data is
// readable afterwards. It fails with storerr.ErrWrongState on an array
// that is not crashed.
func (a *Array) Recover() error { return a.await(a.p.Recover) }

// SetDeviceFailed marks member dev failed (its chunks are then served by
// parity reconstruction) or healthy again. BIZA kinds only.
func (a *Array) SetDeviceFailed(dev int, failed bool) error {
	if a.p.Crashed() {
		return ErrCrashed
	}
	if a.p.BIZA == nil {
		return fmt.Errorf("biza: %s has no degraded mode: %w", a.p.Kind, storerr.ErrNotSupported)
	}
	return a.p.BIZA.SetDeviceFailed(dev, failed)
}

// ReplaceDevicePaced hot-swaps member dev for a fresh device and drives
// the simulation until redundancy is restored (BIZA kinds only).
// stripesPerStep stripes dissolve per step with stepGapNanos of virtual
// idle between steps — the rebuild-rate versus foreground-latency knob;
// zeros do not throttle.
func (a *Array) ReplaceDevicePaced(dev, stripesPerStep int, stepGapNanos int64) error {
	if a.p.Crashed() {
		return ErrCrashed
	}
	ctl := core.RebuildControl{StripesPerStep: stripesPerStep, StepGap: sim.Time(stepGapNanos)}
	return a.await(func(done func(error)) { a.p.ReplaceDevicePaced(dev, ctl, done) })
}

// Scrub reads the whole array, blocksPerStep blocks per read (default
// 1024) with gapNanos of virtual idle between reads, and drives the
// simulation until the last read returns. Unreadable blocks fail it with
// storerr.ErrUnreadable.
func (a *Array) Scrub(blocksPerStep int, gapNanos int64) error {
	if a.p.Crashed() {
		return ErrCrashed
	}
	if blocksPerStep <= 0 {
		blocksPerStep = 1024
	}
	eng, dev := a.p.Eng, a.p.Dev
	total := dev.Blocks()
	return a.await(func(done func(error)) {
		var lba, unreadable int64
		var step func()
		step = func() {
			n := int(min(int64(blocksPerStep), total-lba))
			dev.Read(lba, n, func(res blockdev.ReadResult) {
				if res.Err != nil {
					unreadable += int64(n)
				}
				lba += int64(n)
				switch {
				case lba < total && gapNanos > 0:
					eng.After(sim.Time(gapNanos), step)
				case lba < total:
					step()
				case unreadable > 0:
					done(fmt.Errorf("biza: scrub found %d unreadable blocks: %w", unreadable, storerr.ErrUnreadable))
				default:
					done(nil)
				}
			})
		}
		step()
	})
}
