package raid

import (
	"fmt"
	"math"

	"biza/internal/fifo"
	"biza/internal/pagetab"
)

// Loc is where a logical block lives in a ZoneLog: a zone and the block
// offset inside it. Zone < 0 means unmapped.
type Loc struct {
	Zone int
	Off  int64
}

// loc32 is a Loc as the logical table stores it, in 8 bytes: zone1 is the
// zone + 1, so the zero value (an absent slot) is unmapped.
type loc32 struct{ zone1, off uint32 }

// Bounds of the packed tables, which NewZoneLog refuses to exceed: a table
// slot holds zone + 1 and the offset in 32 bits each, a reverse-map slot
// the logical block + 1.
const (
	maxLogBlocks  = math.MaxUint32
	maxZoneBlocks = math.MaxUint32 + 1
	maxLogZones   = math.MaxUint32
)

type zoneState uint8

const (
	zoneFree zoneState = iota
	zoneOpen
	zoneFull
)

type logZone struct {
	state zoneState
	fill  int64    // offsets handed out since the zone was taken
	valid int64    // offsets still holding the current copy of a block
	rmap  []uint32 // offset -> logical block + 1, 0 when stale or unwritten
}

// ZoneLog is the bookkeeping of a log-structured block store over
// sequential-write zones, shared by the dm-zap adapter and the append-based
// array: the logical-to-physical table, each zone's reverse map, valid
// count and fill, the free lists, and the greedy victim choice. Zones are
// numbered across units (member devices): zone z of unit u is u*perUnit+z,
// and each unit has its own FIFO free list. The log issues no I/O and
// decides no policy: which zone a block goes to, when its mapping becomes
// visible (Map at submission for dm-zap, at completion for appends) and
// which full zones may be collected stay with the engine.
type ZoneLog struct {
	perUnit    int
	zoneBlocks int64
	blocks     int64
	l2p        pagetab.Table[loc32]
	zones      []logZone
	free       []fifo.Queue[int]
}

// NewZoneLog returns a log of units*zonesPerUnit free zones of zoneBlocks
// blocks each, mapping logicalBlocks blocks, none of them mapped. It fails
// when a block, an offset or a zone number would not fit its table slot.
func NewZoneLog(units, zonesPerUnit int, zoneBlocks, logicalBlocks int64) (*ZoneLog, error) {
	switch {
	case logicalBlocks > maxLogBlocks:
		return nil, fmt.Errorf("raid: %d logical blocks, at most %d", logicalBlocks, int64(maxLogBlocks))
	case zoneBlocks > maxZoneBlocks:
		return nil, fmt.Errorf("raid: zones of %d blocks, at most %d", zoneBlocks, int64(maxZoneBlocks))
	case int64(units)*int64(zonesPerUnit) > maxLogZones:
		return nil, fmt.Errorf("raid: %d units of %d zones, at most %d zones", units, zonesPerUnit, int64(maxLogZones))
	}
	l := &ZoneLog{
		perUnit:    zonesPerUnit,
		zoneBlocks: zoneBlocks,
		blocks:     logicalBlocks,
		zones:      make([]logZone, units*zonesPerUnit),
		free:       make([]fifo.Queue[int], units),
	}
	for z := range l.zones {
		l.free[z/zonesPerUnit].Push(z)
	}
	return l, nil
}

// Blocks reports the logical capacity in blocks.
func (l *ZoneLog) Blocks() int64 { return l.blocks }

// FreeZones reports how many zones of unit are free.
func (l *ZoneLog) FreeZones(unit int) int { return l.free[unit].Len() }

// Take opens the longest-free zone of unit, empty; ok is false when the
// unit has none.
func (l *ZoneLog) Take(unit int) (z int, ok bool) {
	if l.free[unit].Len() == 0 {
		return -1, false
	}
	z = l.free[unit].Pop()
	zi := &l.zones[z]
	zi.state, zi.fill, zi.valid = zoneOpen, 0, 0
	if zi.rmap == nil {
		zi.rmap = make([]uint32, l.zoneBlocks)
	} else {
		clear(zi.rmap)
	}
	return z, true
}

// Reserve hands out the next offset of open zone z.
func (l *ZoneLog) Reserve(z int) int64 {
	zi := &l.zones[z]
	zi.fill++
	return zi.fill - 1
}

// Full reports whether every offset of z has been handed out.
func (l *ZoneLog) Full(z int) bool { return l.zones[z].fill >= l.zoneBlocks }

// Valid reports how many blocks of z are current.
func (l *ZoneLog) Valid(z int) int64 { return l.zones[z].valid }

// Retire marks open zone z full: it takes no more blocks and becomes a
// candidate for PickVictim.
func (l *ZoneLog) Retire(z int) { l.zones[z].state = zoneFull }

// Release returns zone z, reset by the caller, to the back of its unit's
// free list.
func (l *ZoneLog) Release(z int) {
	l.zones[z].state = zoneFree
	l.free[z/l.perUnit].Push(z)
}

// At reports where lba lives. An lba outside the log is a caller's bug.
func (l *ZoneLog) At(lba int64) Loc {
	if uint64(lba) >= uint64(l.blocks) {
		panic("raid: logical block outside the log")
	}
	loc := l.l2p.Get(lba)
	return Loc{Zone: int(loc.zone1) - 1, Off: int64(loc.off)}
}

// Map records that lba now lives at off of zone z and invalidates the copy
// it replaces.
func (l *ZoneLog) Map(lba int64, z int, off int64) {
	l.invalidate(lba)
	l.l2p.Set(lba, loc32{zone1: uint32(z + 1), off: uint32(off)})
	zi := &l.zones[z]
	zi.rmap[off] = uint32(lba + 1)
	zi.valid++
}

// Unmap forgets lba (a trim).
func (l *ZoneLog) Unmap(lba int64) {
	l.invalidate(lba)
	l.l2p.Delete(lba)
}

// invalidate drops the current copy of lba from its zone's reverse map. A
// location left behind in a zone that has since been released (its
// migration failed) matches nothing there.
func (l *ZoneLog) invalidate(lba int64) {
	old := l.At(lba)
	if old.Zone < 0 {
		return
	}
	zi := &l.zones[old.Zone]
	if zi.state != zoneFree && zi.rmap[old.Off] == uint32(lba+1) {
		zi.rmap[old.Off] = 0
		zi.valid--
	}
}

// Live lists the logical blocks whose current copy is in z, in offset
// order.
func (l *ZoneLog) Live(z int) []int64 {
	zi := &l.zones[z]
	live := make([]int64, 0, zi.valid)
	for _, lba1 := range zi.rmap[:zi.fill] {
		if lba1 != 0 {
			live = append(live, int64(lba1)-1)
		}
	}
	return live
}

// PickVictim is the greedy collector's choice: of the zones in among that
// are full and eligible, the one with the fewest valid blocks, the earliest
// in among on a tie; -1 when there is none. among carries the engine's
// tie-break order (zone number for dm-zap, retirement order for appends),
// eligible what it must not collect yet (zones with writes in flight).
func (l *ZoneLog) PickVictim(among []int, eligible func(z int) bool) int {
	best, bestValid := -1, int64(1)<<62
	for _, z := range among {
		zi := &l.zones[z]
		if zi.state == zoneFull && zi.valid < bestValid && eligible(z) {
			best, bestValid = z, zi.valid
		}
	}
	return best
}

// Watermarks sizes a collector for a unit of the given zone count: op
// zones of over-provisioning (an eighth, at least 4), collection starting
// below low free zones and stopping at high, with high > low.
func Watermarks(zones int) (op, low, high int) {
	op = max(zones/8, 4)
	low = max(op/2+1, 3)
	high = max(op-1, low+1)
	return op, low, high
}
