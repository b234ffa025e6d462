package core

import "biza/internal/zns"

// observeLatency feeds the §4.3 guess-and-verify detector with a completed
// write. A latency spike while GC is active casts a vote that the target
// zone shares a channel with the BUSY one; enough votes (or one vote from
// a channel whose identity was confirmed by diagnosis) correct the guess.
func (c *Core) observeLatency(ds *devState, zs *zoneState, r zns.WriteResult) {
	if r.Err != nil {
		c.noteIOError(ds.id, r.Err)
		return
	}
	lat := float64(r.Latency)
	// The moving average tracks ALL recent completions — under GC the
	// whole array slows, so the baseline must follow; only zones that are
	// markedly slower than their contemporaries are collision suspects.
	if c.ewmaLatency == 0 {
		c.ewmaLatency = lat
	} else {
		c.ewmaLatency = 0.05*lat + 0.95*c.ewmaLatency
	}
	c.latSamples++
	if !c.cfg.EnableGCAvoid || !ds.gcActive() || c.latSamples < 200 {
		return
	}
	spike := lat > c.cfg.SpikeFactor*c.ewmaLatency
	if !spike {
		// §4.3 requires spikes to appear *continuously* on a zone; a
		// normal completion is evidence against the collision theory, so
		// accumulated votes decay.
		if votes := ds.votes[zs.id]; votes != nil {
			for ch := range votes {
				votes[ch]--
				if votes[ch] <= 0 {
					delete(votes, ch)
				}
			}
			if len(votes) == 0 {
				ds.votes[zs.id] = nil
			}
		}
		return
	}
	// The zone we wrote was supposedly NOT on a busy channel (pickZone
	// avoided those); a spike suggests the guess for zs is wrong. Every
	// currently-busy channel gets a vote: across GC events the truly
	// colliding channel accumulates consistently while bystanders churn,
	// so the majority converges on the real mapping.
	if ds.confirmed[zs.id] {
		return
	}
	if ds.votes[zs.id] == nil {
		ds.votes[zs.id] = make(map[int]int)
	}
	voted := false
	for ch, n := range ds.busy {
		if n == 0 || ch == ds.guessed[zs.id] {
			continue
		}
		ds.votes[zs.id][ch]++
		voted = true
	}
	if !voted {
		return
	}
	// Rectify when one channel holds a clear majority. A vote from a
	// channel whose identity was confirmed by diagnosis is trusted at a
	// lower bar (§4.3).
	best, bestN, secondN := -1, 0, 0
	for ch, n := range ds.votes[zs.id] {
		switch {
		case n > bestN || (n == bestN && (best < 0 || ch < best)):
			secondN = bestN
			best, bestN = ch, n
		case n > secondN:
			secondN = n
		}
	}
	threshold := c.cfg.DetectVotes
	if best >= 0 && ds.busyConf[best] {
		threshold = 1
	}
	if best >= 0 && bestN >= threshold && bestN > secondN {
		ds.guessed[zs.id] = best
		ds.votes[zs.id] = nil
		c.detectCorrects++
	}
}

// SetChannelOracle installs a true-mapping oracle used ONLY for
// diagnostics: while GC is active, dispatched writes are scored against
// it so experiments can report the busy-channel collision rate. Engines
// never consult the oracle for decisions.
func (c *Core) SetChannelOracle(fn func(dev, zone int) int) { c.oracle = fn }

// BusyCollisions reports (writes dispatched while GC was active, how many
// of them landed on a truly busy channel).
func (c *Core) BusyCollisions() (writes, collisions uint64) {
	return c.busyWrites, c.busyHits
}

// scoreDispatch records oracle-based collision accounting for a dispatch.
// GC's own migration writes necessarily land on busy channels and are
// excluded: the metric is about USER traffic steering.
func (c *Core) scoreDispatch(ds *devState, zs *zoneState) {
	if c.oracle == nil || !ds.gcActive() || zs.class == classGC {
		return
	}
	c.busyWrites++
	// A collision means the write's TRUE channel currently carries GC
	// traffic. BUSY bookkeeping is by guessed channel; translate each busy
	// guess back through... the busy set is keyed by channel id directly.
	if ds.busy[c.oracle(ds.id, zs.id)] > 0 {
		c.busyHits++
	}
}

// GuessedChannel reports the detector's current belief for a zone
// (diagnostics and tests).
func (c *Core) GuessedChannel(dev, zone int) int { return c.devs[dev].guessed[zone] }
