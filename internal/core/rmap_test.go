package core

// The zone reverse map (zoneState.rmap): one slice of stripe numbers that
// grows with the zone's written prefix. It must read exactly like the flat
// zone-length map it stands for, cost nothing until a zone is written and
// 8 bytes a slot once it is, and rebuild after a power cut the tables the
// array held before it.

import (
	"fmt"
	"runtime"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

// TestReverseMapMatchesFlatMaps drives one zone's reverse map with random
// sequences of its four operations against an oracle of two flat
// zone-length maps: a stripe number and a parity flag per offset. Sets
// follow the one rule the engine keeps — a slot holds a data chunk or a
// parity chunk, never both — while clears (-1) go anywhere, past the map's
// end included. Offsets run ahead of a moving append prefix, and some land
// far beyond it as recovery's scan does. Every offset reads as in the
// oracle, a read never grows the map, and the map never outgrows the zone.
func TestReverseMapMatchesFlatMaps(t *testing.T) {
	for _, zb := range []int64{256, 3000, 4096} {
		t.Run(fmt.Sprint(zb), func(t *testing.T) {
			zs := (&devState{c: &Core{zoneBlocks: zb, zrwaBlocks: 16}}).newZoneState(0)
			sns, parity := make([]int64, zb), make([]bool, zb)
			for i := range sns {
				sns[i] = -1
			}
			check := func(off int64) {
				t.Helper()
				n := len(zs.rmap)
				wantData, wantParity := sns[off], int64(-1)
				if parity[off] {
					wantData, wantParity = -1, sns[off]
				}
				if got := zs.stripeAt(off); got != wantData {
					t.Fatalf("stripeAt(%d) = %d, want %d", off, got, wantData)
				}
				if got := zs.parityAt(off); got != wantParity {
					t.Fatalf("parityAt(%d) = %d, want %d", off, got, wantParity)
				}
				if len(zs.rmap) != n {
					t.Fatalf("reading offset %d grew the map from %d to %d slots", off, n, len(zs.rmap))
				}
			}
			rng := sim.NewRNG(uint64(zb))
			prefix := int64(0)
			for step := 0; step < 40000; step++ {
				var off int64
				switch rng.Intn(8) {
				case 0: // recovery-style: anywhere in the zone
					off = rng.Int63n(zb)
				case 1, 2, 3: // the next append
					off = min(prefix, zb-1)
					prefix++
				default: // behind the prefix or a little ahead of it
					off = min(max(prefix+rng.Int63n(64)-48, 0), zb-1)
				}
				v := int64(-1)
				if rng.Intn(3) > 0 {
					v = rng.Int63n(1 << 40)
				}
				data := sns[off] >= 0 && !parity[off]
				switch op := rng.Intn(4); {
				case op == 0 && (v < 0 || !parity[off]):
					zs.setStripe(off, v)
					if !parity[off] {
						sns[off] = v
					}
				case op == 1 && (v < 0 || !data):
					zs.setParity(off, v)
					switch {
					case v >= 0:
						sns[off], parity[off] = v, true
					case parity[off]:
						sns[off], parity[off] = -1, false
					}
				default: // a read, or a set the rule forbids here
					check(off)
				}
				if int64(len(zs.rmap)) > zb {
					t.Fatalf("map holds %d slots, zone %d", len(zs.rmap), zb)
				}
				if step%5000 == 0 {
					for o := int64(0); o < zb; o++ {
						check(o)
					}
				}
			}
			for o := int64(0); o < zb; o++ {
				check(o)
			}
			if int64(len(zs.rmap)) != zb {
				t.Fatalf("a zone written end to end holds %d slots, want %d", len(zs.rmap), zb)
			}
		})
	}
}

// bigZoneCore returns the members and configuration of a 3+1 array whose
// members have 16 zones of 16 MiB (4096 blocks), the geometry where a
// zone-length map is 32 KiB a table.
func bigZoneCore(t *testing.T, zonesPerGroup int, storeData bool) (*sim.Engine, []*nvme.Queue, Config) {
	t.Helper()
	eng := sim.NewEngine()
	var queues []*nvme.Queue
	for i := 0; i < 4; i++ {
		dc := devConfig()
		dc.ZoneBlocks, dc.NumZones, dc.Seed, dc.StoreData = 4096, 16, uint64(i), storeData
		d, err := zns.New(eng, dc)
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, nvme.New(d, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: uint64(i) + 40}))
	}
	cfg := DefaultConfig(16)
	cfg.ZonesPerGroup = zonesPerGroup
	return eng, queues, cfg
}

// TestReverseMapAllocFreeUntilWritten: opening a zone allocates no reverse
// map, and a written one holds a bounded multiple of what it was written.
// New opens eight 16 MiB zones on each of four members; with three
// zone-length maps per zone that allocated 3.18 MB, and it must now stay
// an order of magnitude below. After a run of appends, a zone with k
// slots allocated holds at most max(256, 4k) map slots and at least k.
// A slot is 8 bytes of heap: a zone written end to end holds 32 KiB of
// map.
func TestReverseMapAllocFreeUntilWritten(t *testing.T) {
	eng, queues, cfg := bigZoneCore(t, 2, false)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c, err := New(queues, cfg, nil)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 310 << 10
	if got := m1.TotalAlloc - m0.TotalAlloc; got > limit {
		t.Fatalf("New with 32 open 16 MiB zones allocated %d bytes, want at most %d", got, limit)
	}
	grown := false
	for lba := int64(0); lba < 12000; lba += 16 {
		blockdev.WriteSync(eng, c, lba, 16, nil)
		for _, ds := range c.devs {
			for _, zs := range ds.zones {
				if zs == nil {
					continue
				}
				k, n := zs.wpAlloc, int64(len(zs.rmap))
				if n < k || n > max(rmapFirst, rmapGrowth*k) || n > c.zoneBlocks {
					t.Fatalf("zone %d with %d slots allocated holds %d map slots", zs.id, k, n)
				}
				grown = grown || n > 1024
			}
		}
	}
	if !grown {
		t.Fatal("no zone's map grew past 1 024 slots: the run is too short to test growth")
	}
	zs := c.devs[0].newZoneState(0)
	runtime.ReadMemStats(&m0)
	zs.setStripe(c.zoneBlocks-1, 0)
	runtime.ReadMemStats(&m1)
	if got, want := m1.TotalAlloc-m0.TotalAlloc, uint64(8*c.zoneBlocks); got != want || len(zs.rmap) != int(c.zoneBlocks) {
		t.Fatalf("a %d-slot map allocated %d bytes, want %d (8 a slot)", len(zs.rmap), got, want)
	}
}

// TestRecoverRebuildsReverseMapsPastGrowth writes unique blocks until a
// zone of every member is past the map's 1 024-slot step, cuts power, and
// recovers from the OOB scan. With no overwrite, no trim and nothing in
// flight, the tables the array held before the cut are the oracle: the
// recovered BMT, SMT (chunks, blocks, parity, live count), every zone's
// valid count and every slot of every reverse map must equal them.
func TestRecoverRebuildsReverseMapsPastGrowth(t *testing.T) {
	eng, queues, cfg := bigZoneCore(t, 1, true)
	c, err := New(queues, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 3600
	for lba := int64(0); lba < blocks; lba += 8 {
		if r := blockdev.WriteSync(eng, c, lba, 8, nil); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	eng.Run()
	for _, ds := range c.devs {
		ds.q.Device().PowerLoss()
	}
	var nq []*nvme.Queue
	for i, q := range queues {
		nq = append(nq, nvme.New(q.Device(), nvme.Config{Seed: uint64(i) + 90}))
	}
	var rc *Core
	Recover(nq, cfg, nil, func(n *Core, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rc = n
	})
	eng.Run()
	if rc == nil {
		t.Fatal("recovery did not complete")
	}

	for lbn := int64(0); lbn < blocks; lbn++ {
		if got, want := rc.bmt.Get(lbn), c.bmt.Get(lbn); got != want {
			t.Fatalf("BMT[%d] = %+v, want %+v", lbn, got, want)
		}
	}
	if rc.smt.Len() != c.smt.Len() {
		t.Fatalf("SMT holds %d stripes, want %d", rc.smt.Len(), c.smt.Len())
	}
	c.smt.Range(func(sn int64, want *smtEntry) bool {
		got := rc.smt.Get(sn)
		if got == nil || got.valid != want.valid || fmt.Sprint(got.chunks, got.lbns, got.parity) != fmt.Sprint(want.chunks, want.lbns, want.parity) {
			t.Fatalf("SMT[%d] = %+v, want %+v", sn, got, want)
		}
		return true
	})
	grown := 0
	for d := range c.devs {
		grew := false
		for z := range c.devs[d].zones {
			want, got := c.devs[d].zones[z], rc.devs[d].zones[z]
			if want == nil || got == nil {
				if want != nil && want.wpAlloc > 0 || got != nil && got.wpAlloc > 0 {
					t.Fatalf("device %d zone %d: written zone state on one side only", d, z)
				}
				continue
			}
			if got.valid != want.valid {
				t.Fatalf("device %d zone %d: valid %d, want %d", d, z, got.valid, want.valid)
			}
			for off := int64(0); off < c.zoneBlocks; off++ {
				if got.stripeAt(off) != want.stripeAt(off) || got.parityAt(off) != want.parityAt(off) {
					t.Fatalf("device %d zone %d offset %d: recovered slot {stripe %d parity %d}, want {%d %d}",
						d, z, off, got.stripeAt(off), got.parityAt(off), want.stripeAt(off), want.parityAt(off))
				}
			}
			grew = grew || len(got.rmap) > 1024
		}
		if grew {
			grown++
		}
	}
	if grown != len(c.devs) {
		t.Fatalf("%d of %d members have a zone past the 1 024-slot step", grown, len(c.devs))
	}
	assertTables(t, c)
	assertTables(t, rc)
}
