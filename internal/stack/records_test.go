package stack

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/zns"
)

// TestShimRecords gates the RAIZN shim's request record: putting one back
// twice and a zone's answer reaching one that is back panic, and after a
// drained run of one-zone and zone-straddling requests (a write across
// three zones among them) every record made is on the free list.
func TestShimRecords(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	opts := smallOpts()
	opts.ZNS.StoreData = false
	p, err := New(KindRAIZN, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Dev.(*seqZoneDevice)
	r := s.getReq()
	s.putReq(r)
	mustPanic("shim record put twice", func() { s.putReq(r) })
	mustPanic("zone write reported after put", func() { r.onWrote(zns.WriteResult{}) })
	mustPanic("zone read reported after put", func() { r.onHi(zns.ReadResult{}) })

	zb := p.RAIZN.ZoneBlocks()
	writes, reads := 0, 0
	wdone := func(r blockdev.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		writes++
	}
	rdone := func(r blockdev.ReadResult) {
		if r.Err != nil {
			t.Errorf("read: %v", r.Err)
		}
		reads++
	}
	const chunk = 100 // does not divide the zone: every zone boundary is straddled
	var lba int64
	for ; lba < 2*zb; lba += chunk {
		s.Write(lba, chunk, nil, wdone)
		if lba%300 == 0 {
			s.Write(lba+chunk, chunk, nil, nil)
			lba += chunk
			p.Eng.Run()
		}
	}
	s.Write(lba, int(2*zb), nil, wdone) // the rest of this zone, a whole one and part of a third
	p.Eng.Run()
	for at := int64(0); at+chunk <= lba; at += chunk {
		s.Read(at, chunk, rdone)
		s.Read(at, 1, nil)
	}
	p.Eng.Run()
	if writes == 0 || reads != int(lba/chunk) {
		t.Fatalf("%d writes and %d of %d reads completed", writes, reads, lba/chunk)
	}
	if s.reqMade != len(s.reqFree) {
		t.Fatalf("%d shim records made, %d on the free list", s.reqMade, len(s.reqFree))
	}
}
