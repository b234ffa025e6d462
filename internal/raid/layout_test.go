package raid

import (
	"testing"
	"testing/quick"
)

func TestNewLayoutValidation(t *testing.T) {
	for _, bad := range []struct {
		d, p int
		c    int64
	}{{4, 4, 1}, {2, 2, 1}, {4, 0, 1}, {4, 1, 0}} {
		if _, err := NewLayout(bad.d, bad.p, bad.c); err == nil {
			t.Fatalf("accepted disks=%d parity=%d chunk=%d", bad.d, bad.p, bad.c)
		}
	}
	if _, err := NewLayout(4, 1, 16); err != nil {
		t.Fatal(err)
	}
}

func TestLeftAsymmetricRAID5Rotation(t *testing.T) {
	// Canonical left-asymmetric RAID 5 on 4 disks: parity on disk 3,2,1,0
	// for stripes 0,1,2,3, then repeating.
	l, _ := NewLayout(4, 1, 16)
	want := []int{3, 2, 1, 0, 3, 2, 1, 0}
	for s, w := range want {
		if got := l.ParityDisk(int64(s), 0); got != w {
			t.Fatalf("stripe %d parity disk = %d, want %d", s, got, w)
		}
	}
}

func TestDataDiskSkipsParity(t *testing.T) {
	l, _ := NewLayout(4, 1, 16)
	// Stripe 0: parity on 3 -> data on 0,1,2.
	for i, w := range []int{0, 1, 2} {
		if got := l.DataDisk(0, i); got != w {
			t.Fatalf("stripe0 chunk %d disk = %d, want %d", i, got, w)
		}
	}
	// Stripe 1: parity on 2 -> data on 0,1,3.
	for i, w := range []int{0, 1, 3} {
		if got := l.DataDisk(1, i); got != w {
			t.Fatalf("stripe1 chunk %d disk = %d, want %d", i, got, w)
		}
	}
}

func TestRAID6ParityPairsDistinct(t *testing.T) {
	l, _ := NewLayout(6, 2, 8)
	for s := int64(0); s < 12; s++ {
		p0, p1 := l.ParityDisk(s, 0), l.ParityDisk(s, 1)
		if p0 == p1 {
			t.Fatalf("stripe %d parity disks collide on %d", s, p0)
		}
		// Data + parity must cover all disks exactly once.
		seen := make(map[int]bool)
		seen[p0], seen[p1] = true, true
		for i := 0; i < l.DataDisks(); i++ {
			d := l.DataDisk(s, i)
			if seen[d] {
				t.Fatalf("stripe %d disk %d assigned twice", s, d)
			}
			seen[d] = true
		}
		if len(seen) != 6 {
			t.Fatalf("stripe %d covers %d disks", s, len(seen))
		}
	}
}

func TestLocateLBARoundTrip(t *testing.T) {
	l, _ := NewLayout(4, 1, 16)
	if err := quick.Check(func(x uint32) bool {
		lba := int64(x)
		s, c, o := l.Locate(lba)
		return l.LBA(s, c, o) == lba && c >= 0 && c < l.DataDisks() && o >= 0 && o < l.chunkBlocks
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeBlocks(t *testing.T) {
	l, _ := NewLayout(4, 1, 16)
	if l.StripeBlocks() != 48 {
		t.Fatalf("stripe blocks = %d", l.StripeBlocks())
	}
	if l.DiskOffset(3, 5) != 3*16+5 {
		t.Fatalf("disk offset math wrong")
	}
}
