package core

import (
	"errors"

	"biza/internal/obs"
	"biza/internal/storerr"
)

// MemberState is the health of one array member. Its names are
// obs.MemberStateName's (trace exporters render it by value).
type MemberState uint8

const (
	// MemberHealthy members serve reads and writes directly.
	MemberHealthy MemberState = iota
	// MemberDegraded members are dead or failed: reads of their chunks
	// reconstruct from the stripe's survivors.
	MemberDegraded
	// MemberRebuilding members are fresh replacements whose stripes are
	// still being dissolved back to full redundancy.
	MemberRebuilding
)

func (s MemberState) String() string { return obs.MemberStateName(int64(s)) }

// Health reports the current state of every member.
func (c *Core) Health() []MemberState {
	out := make([]MemberState, len(c.devs))
	for i := range out {
		out[i] = c.memberState(i)
	}
	return out
}

func (c *Core) memberState(dev int) MemberState {
	switch {
	case c.rebuilding[dev]:
		return MemberRebuilding
	case c.dead[dev] || c.failed[dev]:
		return MemberDegraded
	}
	return MemberHealthy
}

// Degraded reports whether any member is below full redundancy.
func (c *Core) Degraded() bool {
	for i := range c.devs {
		if c.dead[i] || c.failed[i] || c.rebuilding[i] {
			return true
		}
	}
	return false
}

// OnMemberDeath registers a handler fired (via a zero-delay event, so the
// failing completion unwinds first) when a member is declared dead. The
// usual handler swaps in a spare via ReplaceDevicePaced.
func (c *Core) OnMemberDeath(fn func(dev int)) { c.onDeath = fn }

// Reconstructions reports how many chunk reads were served by parity
// reconstruction instead of the owning member.
func (c *Core) Reconstructions() uint64 { return c.reconTotal }

// DegradedWrites reports chunk writes acknowledged while their member was
// unavailable (the content stays covered by the surviving slots).
func (c *Core) DegradedWrites() uint64 { return c.degradedWrites }

// degradedOK reports whether absorbing one more member-side write failure
// keeps every stripe inside the array's fault budget.
func (c *Core) degradedOK() bool {
	n := 0
	for i := range c.devs {
		if c.failed[i] {
			n++
		}
	}
	return n <= c.cfg.Parity
}

// noteIOError inspects a completion error from a member device. A
// device-death error permanently marks the member dead: reads flip to the
// degraded path and the death handler is scheduled. Transient and
// addressing errors pass through untouched (the nvme layer already
// retried transients).
func (c *Core) noteIOError(dev int, err error) {
	if err == nil || dev < 0 || dev >= len(c.devs) {
		return
	}
	if c.dead[dev] || !errors.Is(err, storerr.ErrDeviceDead) {
		return
	}
	old := c.memberState(dev)
	c.dead[dev] = true
	c.failed[dev] = true
	c.traceMemberState(dev, old)
	if c.onDeath != nil {
		d := dev
		c.eng.After(0, func() { c.onDeath(d) })
	}
}

func (c *Core) traceMemberState(dev int, old MemberState) {
	if c.tr == nil {
		return
	}
	c.tr.Event(int64(c.eng.Now()), obs.LayerBIZA, obs.EvMemberState, dev, -1,
		int64(c.memberState(dev)), int64(old), 0)
}

// noteReconstruct records one chunk served (or refused) by the erasure
// code on behalf of a failed member.
func (c *Core) noteReconstruct(dev int, lbn int64, err error) {
	c.reconTotal++
	if dev >= 0 && dev < len(c.reconstructs) {
		c.reconstructs[dev]++
	}
	if c.tr == nil {
		return
	}
	var failed int64
	if err != nil {
		failed = 1
	}
	now := int64(c.eng.Now())
	c.tr.Event(now, obs.LayerBIZA, obs.EvReconstruct, dev, -1, lbn, failed, 0)
	if dev >= 0 && dev < len(c.reconstructs) {
		c.tr.Counter(now, obs.ProbeKey(obs.ProbeReconstructs, dev, 0), int64(c.reconstructs[dev]))
	}
}
