package raid

import (
	"math/rand"
	"testing"
)

// logModel drives a ZoneLog the way its two engines do — append to an
// open zone per unit, retire it when full, collect the greedy victim when
// the unit runs out of free zones — and keeps the only thing the log does
// not: which blocks are mapped.
type logModel struct {
	t      *testing.T
	l      *ZoneLog
	rng    *rand.Rand
	open   []int   // per unit
	full   [][]int // per unit, retirement order
	mapped map[int64]bool
	banned int // zones z with z%3 == banned are not eligible
}

func (m *logModel) eligible(z int) bool { return z%3 != m.banned }

func (m *logModel) unitOf(z int) int { return z / m.l.perUnit }

// room returns an open zone of unit with an offset left, collecting first
// when the unit has no free zone to replace a full one.
func (m *logModel) room(unit int) int {
	z := m.open[unit]
	if !m.l.Full(z) {
		return z
	}
	if m.l.FreeZones(unit) == 0 {
		m.collect(unit)
	}
	nz, ok := m.l.Take(unit)
	if !ok {
		m.t.Fatalf("unit %d: no free zone after collecting", unit)
	}
	m.l.Retire(z)
	m.full[unit] = append(m.full[unit], z)
	m.open[unit] = nz
	return nz
}

func (m *logModel) write(lba int64, unit int) {
	z := m.room(unit)
	m.l.Map(lba, z, m.l.Reserve(z))
	m.mapped[lba] = true
}

// collect empties and releases unit's victim, re-mapping its live blocks
// into another unit's open zone (so collecting never needs a free zone
// here).
func (m *logModel) collect(unit int) {
	v := m.l.PickVictim(m.full[unit], func(int) bool { return true })
	if v < 0 {
		m.t.Fatalf("unit %d: no victim among %v", unit, m.full[unit])
	}
	other := (unit + 1) % len(m.open)
	for _, lba := range m.l.Live(v) {
		if m.l.Full(m.open[other]) {
			m.l.Unmap(lba) // nowhere to put it: the model drops the block
			delete(m.mapped, lba)
			continue
		}
		z := m.open[other]
		m.l.Map(lba, z, m.l.Reserve(z))
	}
	if n := m.l.Valid(v); n != 0 {
		m.t.Fatalf("victim %d still holds %d valid blocks", v, n)
	}
	for i, z := range m.full[unit] {
		if z == v {
			m.full[unit] = append(m.full[unit][:i], m.full[unit][i+1:]...)
			break
		}
	}
	m.l.Release(v)
}

// check recounts everything the log maintains incrementally.
func (m *logModel) check(step int) {
	l := m.l
	states := [3]int{}
	for z := range l.zones {
		zi := &l.zones[z]
		states[zi.state]++
		if zi.state == zoneFree {
			continue
		}
		valid := int64(0)
		for off, lba := range zi.rmap {
			if lba < 0 {
				continue
			}
			valid++
			if int64(off) >= zi.fill {
				m.t.Fatalf("step %d: zone %d maps offset %d beyond its fill %d", step, z, off, zi.fill)
			}
			if got := l.At(lba); got != (Loc{Zone: z, Off: int64(off)}) {
				m.t.Fatalf("step %d: zone %d offset %d claims block %d, which lives at %+v", step, z, off, lba, got)
			}
		}
		if valid != zi.valid {
			m.t.Fatalf("step %d: zone %d valid = %d, recount %d", step, z, zi.valid, valid)
		}
	}
	free := 0
	for u := range l.free {
		free += l.FreeZones(u)
	}
	if free != states[zoneFree] || states[zoneFree]+states[zoneOpen]+states[zoneFull] != len(l.zones) {
		m.t.Fatalf("step %d: free lists hold %d, states %v of %d zones", step, free, states, len(l.zones))
	}
	for lba := int64(0); lba < l.Blocks(); lba++ {
		loc := l.At(lba)
		if (loc.Zone >= 0) != m.mapped[lba] {
			m.t.Fatalf("step %d: block %d at %+v, model mapped=%v", step, lba, loc, m.mapped[lba])
		}
		if loc.Zone >= 0 && l.zones[loc.Zone].rmap[loc.Off] != lba {
			m.t.Fatalf("step %d: block %d at %+v, which holds %d", step, lba, loc, l.zones[loc.Zone].rmap[loc.Off])
		}
	}
	// The victim is the eligible full zone with the fewest valid blocks,
	// the earliest listed on a tie.
	for u, among := range m.full {
		want, wantValid := -1, int64(1)<<62
		for _, z := range among {
			if m.eligible(z) && l.Valid(z) < wantValid {
				want, wantValid = z, l.Valid(z)
			}
		}
		if got := l.PickVictim(among, m.eligible); got != want {
			m.t.Fatalf("step %d: unit %d victim = %d, want %d (fewest valid among eligible of %v)", step, u, got, want, among)
		}
	}
}

func TestZoneLogMatchesRecount(t *testing.T) {
	const units, perUnit, zoneBlocks, logical = 2, 8, 16, 120
	for seed := int64(1); seed <= 20; seed++ {
		m := &logModel{
			t:      t,
			l:      NewZoneLog(units, perUnit, zoneBlocks, logical),
			rng:    rand.New(rand.NewSource(seed)),
			full:   make([][]int, units),
			mapped: map[int64]bool{},
			banned: int(seed % 3),
		}
		for u := 0; u < units; u++ {
			z, _ := m.l.Take(u)
			if m.unitOf(z) != u {
				t.Fatalf("Take(%d) = zone %d of unit %d", u, z, m.unitOf(z))
			}
			m.open = append(m.open, z)
		}
		for step := 0; step < 3000; step++ {
			lba := m.rng.Int63n(logical)
			switch op := m.rng.Intn(10); {
			case op < 7: // map or overwrite
				m.write(lba, m.rng.Intn(units))
			case op < 9: // trim a short range
				for i := lba; i < min(lba+4, logical); i++ {
					m.l.Unmap(i)
					delete(m.mapped, i)
				}
			default:
				if u := m.rng.Intn(units); len(m.full[u]) > 0 {
					m.collect(u)
				}
			}
			m.check(step)
		}
	}
}

func TestWatermarks(t *testing.T) {
	tests := []struct {
		name                      string
		zones                     int
		wantOp, wantLow, wantHigh int
	}{
		{name: "the 128-zone geometry every experiment uses", zones: 128, wantOp: 16, wantLow: 9, wantHigh: 15},
		{name: "RAIZN's 126 logical zones", zones: 126, wantOp: 15, wantLow: 8, wantHigh: 14},
		{name: "test geometry", zones: 64, wantOp: 8, wantLow: 5, wantHigh: 7},
		{name: "small: high is pushed above low", zones: 16, wantOp: 4, wantLow: 3, wantHigh: 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			op, low, high := Watermarks(tc.zones)
			if op != tc.wantOp || low != tc.wantLow || high != tc.wantHigh {
				t.Fatalf("Watermarks(%d) = %d/%d/%d, want %d/%d/%d", tc.zones, op, low, high, tc.wantOp, tc.wantLow, tc.wantHigh)
			}
		})
	}
	for zones := 1; zones <= 4096; zones++ {
		if _, low, high := Watermarks(zones); high <= low {
			t.Fatalf("Watermarks(%d): high %d <= low %d", zones, high, low)
		}
	}
}
