package raid

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"biza/internal/pagetab"
)

// checkMaps verifies what the log keeps in two places: every mapped block's
// (zone, offset) slot names it back, no live reverse-map slot names a block
// mapped elsewhere, and each zone's valid count is its live slots. A block
// mapped into a released zone fails it too; the engines leave one only when
// a migration fails.
func (l *ZoneLog) checkMaps() error {
	var err error
	l.l2p.Range(func(lba int64, _ loc32) bool {
		loc := l.At(lba)
		switch zi := &l.zones[loc.Zone]; {
		case zi.state == zoneFree:
			err = fmt.Errorf("block %d maps to %+v, a free zone", lba, loc)
		case int64(zi.rmap[loc.Off])-1 != lba:
			err = fmt.Errorf("block %d maps to %+v, whose slot names %d", lba, loc, int64(zi.rmap[loc.Off])-1)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	for z := range l.zones {
		zi := &l.zones[z]
		if zi.state == zoneFree {
			continue
		}
		live := int64(0)
		for off, lba1 := range zi.rmap {
			if lba1 == 0 {
				continue
			}
			lba := int64(lba1) - 1
			live++
			if int64(off) >= zi.fill {
				return fmt.Errorf("zone %d maps offset %d beyond its fill %d", z, off, zi.fill)
			}
			if got := l.At(lba); got != (Loc{Zone: z, Off: int64(off)}) {
				return fmt.Errorf("zone %d offset %d names block %d, which maps to %+v", z, off, lba, got)
			}
		}
		if live != zi.valid {
			return fmt.Errorf("zone %d counts %d valid blocks, its reverse map %d", z, zi.valid, live)
		}
	}
	return nil
}

func newLog(t *testing.T, units, zonesPerUnit int, zoneBlocks, logicalBlocks int64) *ZoneLog {
	t.Helper()
	l, err := NewZoneLog(units, zonesPerUnit, zoneBlocks, logicalBlocks)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

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

	pageLive map[int64]int // mapped blocks per page of the log's table
	emptied  int           // times a page lost its last mapped block
}

// track records whether lba is mapped.
func (m *logModel) track(lba int64, mapped bool) {
	if m.mapped[lba] == mapped {
		return
	}
	page := lba / pagetab.PageSize
	if mapped {
		m.mapped[lba] = true
		m.pageLive[page]++
		return
	}
	delete(m.mapped, lba)
	if m.pageLive[page]--; m.pageLive[page] == 0 {
		m.emptied++
	}
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
	m.track(lba, true)
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
			m.track(lba, false)
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
	if err := l.checkMaps(); err != nil {
		m.t.Fatalf("step %d: %v", step, err)
	}
	states := [3]int{}
	for z := range l.zones {
		states[l.zones[z].state]++
	}
	free := 0
	for u := range l.free {
		free += l.FreeZones(u)
	}
	if free != states[zoneFree] || states[zoneFree]+states[zoneOpen]+states[zoneFull] != len(l.zones) {
		m.t.Fatalf("step %d: free lists hold %d, states %v of %d zones", step, free, states, len(l.zones))
	}
	// The log maps exactly the model's blocks.
	if l.l2p.Len() != len(m.mapped) {
		m.t.Fatalf("step %d: log maps %d blocks, model %d", step, l.l2p.Len(), len(m.mapped))
	}
	for lba := range m.mapped {
		if loc := l.At(lba); loc.Zone < 0 {
			m.t.Fatalf("step %d: block %d unmapped, model mapped", step, lba)
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

// TestZoneLogMatchesRecount drives the log with 120 distinct blocks. Dense,
// they share one page of the logical table; spread 37 apart, they span 18
// pages of a few blocks each, which trims and collections empty and
// refill.
func TestZoneLogMatchesRecount(t *testing.T) {
	const units, perUnit, zoneBlocks, keys = 2, 8, 16, 120
	for _, stride := range []int64{1, 37} {
		t.Run(fmt.Sprintf("stride %d", stride), func(t *testing.T) {
			emptied := 0
			for seed := int64(1); seed <= 20; seed++ {
				m := &logModel{
					t:        t,
					l:        newLog(t, units, perUnit, zoneBlocks, keys*stride),
					rng:      rand.New(rand.NewSource(seed)),
					full:     make([][]int, units),
					mapped:   map[int64]bool{},
					banned:   int(seed % 3),
					pageLive: map[int64]int{},
				}
				for u := 0; u < units; u++ {
					z, _ := m.l.Take(u)
					if m.unitOf(z) != u {
						t.Fatalf("Take(%d) = zone %d of unit %d", u, z, m.unitOf(z))
					}
					m.open = append(m.open, z)
				}
				for step := 0; step < 3000; step++ {
					key := m.rng.Int63n(keys)
					switch op := m.rng.Intn(10); {
					case op < 7: // map or overwrite
						m.write(key*stride, m.rng.Intn(units))
					case op < 9: // trim a short range
						for k := key; k < min(key+4, keys); k++ {
							m.l.Unmap(k * stride)
							m.track(k*stride, false)
						}
					default:
						if u := m.rng.Intn(units); len(m.full[u]) > 0 {
							m.collect(u)
						}
					}
					m.check(step)
				}
				emptied += m.emptied
			}
			if stride > 1 && emptied == 0 {
				t.Fatal("no page of the logical table ever emptied")
			}
		})
	}
}

// TestZoneLogRefusesBlocksOutsideIt: the table allocates on first touch and
// reads a missing key as unmapped, so the log checks the range itself, as
// the flat table's index did.
func TestZoneLogRefusesBlocksOutsideIt(t *testing.T) {
	l := newLog(t, 1, 4, 16, 1000)
	z, _ := l.Take(0)
	for _, lba := range []int64{-1, l.Blocks(), 1 << 40} {
		for name, f := range map[string]func(){
			"At":    func() { l.At(lba) },
			"Map":   func() { l.Map(lba, z, 0) },
			"Unmap": func() { l.Unmap(lba) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on a %d-block log did not panic", name, lba, l.Blocks())
					}
				}()
				f()
			}()
		}
	}
}

// TestZoneLogRetakenZoneStartsEmpty: a released zone keeps the reverse-map
// slots of blocks left behind in it (a failed migration) until it is taken
// again. Taken again, it names none of them: no live block, and after a
// partial refill checkMaps, which reads every slot, still holds.
func TestZoneLogRetakenZoneStartsEmpty(t *testing.T) {
	l := newLog(t, 1, 2, 8, 16)
	z, _ := l.Take(0)
	for lba := int64(0); lba < 8; lba++ {
		l.Map(lba, z, l.Reserve(z))
	}
	l.Retire(z)
	other, _ := l.Take(0)
	for lba := int64(0); lba < 6; lba++ {
		l.Map(lba, other, l.Reserve(other))
	}
	l.Release(z) // blocks 6 and 7 still name z
	l.Unmap(6)
	l.Unmap(7)
	if again, _ := l.Take(0); again != z {
		t.Fatalf("took zone %d, want the released %d", again, z)
	}
	if live := l.Live(z); len(live) != 0 || l.Valid(z) != 0 {
		t.Fatalf("retaken zone reports live blocks %v, %d valid", live, l.Valid(z))
	}
	for lba := int64(8); lba < 11; lba++ {
		l.Map(lba, z, l.Reserve(z))
	}
	if err := l.checkMaps(); err != nil {
		t.Fatal(err)
	}
	if live := l.Live(z); fmt.Sprint(live) != "[8 9 10]" {
		t.Fatalf("refilled zone reports live blocks %v, want [8 9 10]", live)
	}
}

// TestNewZoneLogRefusesWideGeometry: a table slot holds zone + 1 and the
// offset in 32 bits each, a reverse-map slot the block + 1, so NewZoneLog
// refuses a geometry one past any of those before allocating anything
// sized by it. A log of 2^32 - 1 blocks is the largest it takes.
func TestNewZoneLogRefusesWideGeometry(t *testing.T) {
	tests := []struct {
		name                string
		units, zonesPerUnit int
		zoneBlocks, blocks  int64
		want                string // "" for accepted
	}{
		{name: "2^32 - 1 logical blocks", units: 1, zonesPerUnit: 4, zoneBlocks: 16, blocks: 1<<32 - 1},
		{name: "2^32 logical blocks", units: 1, zonesPerUnit: 4, zoneBlocks: 16, blocks: 1 << 32, want: "4294967296 logical blocks"},
		{name: "zones of 2^32 + 1 blocks", units: 1, zonesPerUnit: 4, zoneBlocks: 1<<32 + 1, blocks: 16, want: "zones of 4294967297 blocks"},
		{name: "2^32 zones", units: 1 << 16, zonesPerUnit: 1 << 16, zoneBlocks: 16, blocks: 16, want: "65536 units of 65536 zones"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			l, err := NewZoneLog(tc.units, tc.zonesPerUnit, tc.zoneBlocks, tc.blocks)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("NewZoneLog: %v, want a rejection naming %q", err, tc.want)
				}
				return
			}
			if err != nil || l.Blocks() != tc.blocks {
				t.Fatalf("NewZoneLog: %v", err)
			}
		})
	}
}

// TestZoneLogAllocFreeUntilMapped: a log's logical table holds only what is
// mapped. Flat, 400 000 blocks took 6.4 MB before the first write; now New
// allocates its zones and free lists alone. k scattered maps then allocate
// at most the table pages they touch, plus the directory, whose arrays grow
// by doubling and so add up to under four pointers per page. A table slot
// is 8 bytes and a reverse-map slot 4.
func TestZoneLogAllocFreeUntilMapped(t *testing.T) {
	const blocks, k = 400_000, 64
	if got := unsafe.Sizeof(loc32{}); got != 8 {
		t.Fatalf("a logical table slot is %d bytes, want 8", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l := newLog(t, 1, 128, 4096, blocks)
	runtime.ReadMemStats(&m1)
	made := m1.TotalAlloc - m0.TotalAlloc
	if made >= 64<<10 {
		t.Fatalf("NewZoneLog of %d blocks allocated %d bytes, want under 64 KiB", blocks, made)
	}

	z, _ := l.Take(0) // the zone's reverse map
	if got := unsafe.Sizeof(l.zones[z].rmap[0]); got != 4 {
		t.Fatalf("a reverse-map slot is %d bytes, want 4", got)
	}
	const stride = blocks / k
	runtime.ReadMemStats(&m0)
	for i := int64(0); i < k; i++ {
		l.Map(i*stride, z, l.Reserve(z))
	}
	runtime.ReadMemStats(&m1)
	if err := l.checkMaps(); err != nil {
		t.Fatal(err)
	}
	pages := map[int64]bool{}
	for i := int64(0); i < k; i++ {
		pages[i*stride/pagetab.PageSize] = true
	}
	// A page is 256 8-byte slots and its occupancy bits: 2 088 bytes, which
	// the allocator serves from its 2 304-byte class.
	limit := uint64(len(pages))*2304 + 4*8*((k-1)*stride/pagetab.PageSize+1)
	got := m1.TotalAlloc - m0.TotalAlloc
	if got > limit {
		t.Fatalf("%d scattered maps allocated %d bytes, want at most %d (%d table pages touched)", k, got, limit, len(pages))
	}
	t.Logf("NewZoneLog allocated %d bytes; %d scattered maps %d bytes over %d table pages (limit %d)", made, k, got, len(pages), limit)
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
