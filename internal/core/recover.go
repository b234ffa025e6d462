package core

import (
	"fmt"

	"biza/internal/cpumodel"
	"biza/internal/nvme"
	"biza/internal/zns"
)

// scanRecord is one decoded OOB entry found during the recovery scan.
type scanRecord struct {
	p    pa
	kind byte
	lbn  int64
	sn   int64
	seq  uint64
	idx  int // chunk index (data) or parity row (parity)
}

// Recover rebuilds a BIZA array's mapping tables from the per-block OOB
// records on the member devices (§4.1's crash-consistency design: the
// union of BMT and SMT entries piggybacks on every chunk program, and the
// ZRWA is non-volatile, so an OOB scan reconstructs everything the host
// DRAM lost). The scan runs in virtual time; done fires with the rebuilt
// engine once every zone has been read.
func Recover(queues []*nvme.Queue, cfg Config, acct *cpumodel.Accountant, done func(*Core, error)) {
	c, err := newCore(queues, cfg, acct)
	if err != nil {
		done(nil, err)
		return
	}
	for i, q := range queues {
		ds := emptyDevState(c, i, q)
		ds.diagnose(cfg.DiagnoseZones)
		c.devs = append(c.devs, ds)
	}

	var records []scanRecord
	zoneWritten := make([][]int64, len(queues)) // highest written off+1 per zone
	zoneState0 := make([][]zns.ZoneState, len(queues))
	outstanding := 0
	var scanErr error

	finishScan := func() {
		if scanErr != nil {
			done(nil, scanErr)
			return
		}
		c.rebuild(records, zoneWritten, zoneState0, done)
	}

	for d, q := range queues {
		dcfg := q.Device().Config()
		zoneWritten[d] = make([]int64, dcfg.NumZones)
		zoneState0[d] = make([]zns.ZoneState, dcfg.NumZones)
		for z := 0; z < dcfg.NumZones; z++ {
			info, err := q.Device().ZoneInfo(z)
			if err != nil {
				done(nil, err)
				return
			}
			zoneState0[d][z] = info.State
			var extent int64
			switch info.State {
			case zns.ZoneEmpty, zns.ZoneOffline:
				continue
			case zns.ZoneFull:
				extent = c.zoneBlocks
			default:
				extent = info.WritePtr + c.zrwaBlocks
				if extent > c.zoneBlocks {
					extent = c.zoneBlocks
				}
			}
			if extent == 0 {
				continue
			}
			d, z := d, z
			outstanding++
			q.ReadInto(z, 0, int(extent), nil, true, func(r zns.ReadResult) {
				if r.Err != nil && scanErr == nil {
					scanErr = r.Err
				}
				for off, oob := range r.OOB {
					kind, lbn, sn, seq, idx, ok := decodeOOB(oob)
					if !ok {
						continue
					}
					records = append(records, scanRecord{
						p: pa{dev: int16(d), zone: uint16(z), off: uint32(off)}, kind: kind,
						lbn: lbn, sn: sn, seq: seq, idx: idx,
					})
					if int64(off)+1 > zoneWritten[d][z] {
						zoneWritten[d][z] = int64(off) + 1
					}
				}
				outstanding--
				if outstanding == 0 {
					finishScan()
				}
			})
		}
	}
	if outstanding == 0 {
		finishScan()
	}
}

// rebuild reconstructs BMT, SMT, and zone bookkeeping from scan records.
func (c *Core) rebuild(records []scanRecord, zoneWritten [][]int64, states [][]zns.ZoneState, done func(*Core, error)) {
	type winner struct {
		p   pa
		sn  int64
		seq uint64
	}
	type prKey struct {
		sn  int64
		row int
	}
	dataWin := make(map[int64]winner) // lbn -> newest data record
	parityWin := make(map[prKey]winner)
	for _, r := range records {
		if r.seq > c.seq {
			c.seq = r.seq
		}
		if r.sn < 0 || r.sn > maxSN {
			done(nil, fmt.Errorf("core: stripe %d recorded at %+v: %w", r.sn, r.p, errStripeNumbers))
			return
		}
		if r.kind == oobKindData && (uint64(r.lbn) >= uint64(c.Blocks()) || r.idx >= c.nData) {
			done(nil, fmt.Errorf("core: block %d as chunk %d recorded at %+v, outside the array", r.lbn, r.idx, r.p))
			return
		}
		if r.sn >= c.nextSN {
			c.nextSN = r.sn + 1
		}
		switch r.kind {
		case oobKindData:
			if w, ok := dataWin[r.lbn]; !ok || r.seq > w.seq {
				dataWin[r.lbn] = winner{p: r.p, sn: r.sn, seq: r.seq}
			}
		case oobKindParity:
			pk := prKey{sn: r.sn, row: r.idx}
			if w, ok := parityWin[pk]; !ok || r.seq > w.seq {
				parityWin[pk] = winner{p: r.p, sn: r.sn, seq: r.seq}
			}
		}
	}
	// Instantiate zone states for every non-empty zone.
	zoneOf := func(p pa) *zoneState {
		ds := c.devs[p.dev]
		zs := ds.zones[p.zone]
		if zs == nil {
			zs = ds.newZoneState(int(p.zone))
			zs.wpAlloc = zoneWritten[p.dev][p.zone]
			zs.maxSubmitted = zs.wpAlloc - 1
			zs.donePrefix = zs.wpAlloc
			ds.zones[p.zone] = zs
		}
		return zs
	}
	smtOf := func(sn int64) *smtEntry {
		se := c.smt.Get(sn)
		if se == nil {
			se = c.getSE()
			parity := se.parity()
			for i := range parity {
				parity[i] = paNone
			}
			c.smt.Set(sn, se)
		}
		return se
	}
	// Stripe membership: every data slot (live or stale) belongs to its
	// stripe at its recorded chunk index — the index selects the erasure
	// coefficients, so order must be restored exactly.
	for _, r := range records {
		if r.kind != oobKindData {
			continue
		}
		se := smtOf(r.sn)
		for int(se.n) <= r.idx {
			se.addChunk(paNone, -1)
		}
		se.chunks()[r.idx] = r.p
		live := false
		if w, ok := dataWin[r.lbn]; ok && w.p == r.p && w.sn == r.sn {
			live = true
		}
		zs := zoneOf(r.p)
		zs.setStripe(int64(r.p.off), r.sn)
		if live {
			se.lbns()[r.idx] = uint32(r.lbn + 1)
			se.valid++
			c.bmt.Set(r.lbn, mapTo(r.p, r.sn))
			zs.valid++
		}
	}
	for k, w := range parityWin {
		if k.row >= c.cfg.Parity {
			continue
		}
		se := smtOf(k.sn)
		se.parity()[k.row] = w.p
		c.setState(se, stripeSealed) // recovered stripes are sealed (short if partial)
		zs := zoneOf(w.p)
		zs.setParity(int64(w.p.off), k.sn)
		zs.valid++
	}
	// Drop stripes missing any parity record (never got their first
	// parity write): their chunks were not acknowledged; forget them.
	c.smt.Range(func(sn int64, se *smtEntry) bool {
		incomplete := false
		for _, p := range se.parity() {
			if p.dev < 0 {
				incomplete = true
				break
			}
		}
		if incomplete {
			lbns := se.lbns()
			for i, p := range se.chunks() {
				if lbn := int64(lbns[i]) - 1; lbn >= 0 {
					c.bmt.Delete(lbn)
					if zs := c.devs[p.dev].zones[p.zone]; zs != nil {
						if zs.stripeAt(int64(p.off)) == sn {
							zs.valid--
						}
						zs.setStripe(int64(p.off), -1)
					}
				}
			}
			c.smt.Delete(sn)
			c.dropSE(se)
		}
		return true
	})
	// Zone pools and groups: empty zones are free; full zones are GC
	// candidates; open zones are reused to seed the class groups.
	var openPool []*zoneState
	for d, ds := range c.devs {
		for z := 0; z < len(ds.zones); z++ {
			switch states[d][z] {
			case zns.ZoneEmpty:
				ds.freeZones = append(ds.freeZones, z)
			case zns.ZoneFull:
				if ds.zones[z] == nil {
					zoneOf(pa{dev: int16(d), zone: uint16(z)})
				}
				ds.zones[z].sealedF = true
				ds.zones[z].wpAlloc = c.zoneBlocks
				ds.fullZones = append(ds.fullZones, z)
			case zns.ZoneImplicitOpen, zns.ZoneExplicitOpen, zns.ZoneClosed:
				if ds.zones[z] == nil {
					zoneOf(pa{dev: int16(d), zone: uint16(z)})
				}
				openPool = append(openPool, ds.zones[z])
			}
		}
	}
	// Seed every device's class groups, reusing its recovered open zones
	// first and opening fresh ones as needed; finish leftovers.
	assigned := make(map[*zoneState]bool)
	for d, ds := range c.devs {
		for class := Class(0); class < numClasses; class++ {
			for i := 0; i < c.cfg.ZonesPerGroup; i++ {
				var zs *zoneState
				for _, cand := range openPool {
					if !assigned[cand] && cand.wpAlloc < c.zoneBlocks && c.devOf(cand) == d {
						zs = cand
						break
					}
				}
				if zs == nil {
					nz, err := ds.openNewZone(class)
					if err != nil {
						done(nil, fmt.Errorf("core: recovery cannot seed groups on device %d: %w", d, err))
						return
					}
					zs = nz
				}
				assigned[zs] = true
				zs.class = class
				ds.groups[class] = append(ds.groups[class], zs)
			}
		}
	}
	for _, zs := range openPool {
		if assigned[zs] {
			continue
		}
		ds := c.devs[c.devOf(zs)]
		zs.sealedF = true
		if err := ds.q.Device().Finish(zs.id); err == nil {
			ds.fullZones = append(ds.fullZones, zs.id)
		}
	}
	c.acct.Charge(cpumodel.CompBIZA, cpumodel.CostSchedule)
	done(c, nil)
}

// devOf finds which device owns a zone state (recovery bookkeeping).
func (c *Core) devOf(zs *zoneState) int {
	for d, ds := range c.devs {
		if int(zs.id) < len(ds.zones) && ds.zones[zs.id] == zs {
			return d
		}
	}
	panic("core: orphan zone state")
}
