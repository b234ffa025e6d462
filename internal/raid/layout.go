// Package raid provides stripe geometry shared by the array engines:
// left-asymmetric RAID 5 rotation (the layout the paper names in §4.1),
// RAID 6 extension, and the logical-address math block-interface engines
// use to map LBAs onto (disk, offset) pairs.
package raid

import "fmt"

// Layout describes an n-disk array with m rotating parity chunks per
// stripe and a fixed chunk size in blocks.
type Layout struct {
	disks       int
	parity      int
	chunkBlocks int64
}

// NewLayout builds a layout; disks > parity >= 1.
func NewLayout(disks, parity int, chunkBlocks int64) (*Layout, error) {
	if parity < 1 || disks <= parity || chunkBlocks < 1 {
		return nil, fmt.Errorf("raid: invalid layout disks=%d parity=%d chunk=%d", disks, parity, chunkBlocks)
	}
	return &Layout{disks: disks, parity: parity, chunkBlocks: chunkBlocks}, nil
}

// DataDisks reports data chunks per stripe.
func (l *Layout) DataDisks() int { return l.disks - l.parity }

// StripeBlocks reports the user-visible blocks per stripe.
func (l *Layout) StripeBlocks() int64 { return l.chunkBlocks * int64(l.DataDisks()) }

// ParityDisk reports which member holds parity p (0..m-1) of the stripe.
// Left-asymmetric rotation: parity walks right-to-left one member per
// stripe; for m > 1 the parity chunks occupy consecutive members.
func (l *Layout) ParityDisk(stripe int64, p int) int {
	base := l.disks - 1 - int(stripe%int64(l.disks))
	d := base - p
	if d < 0 {
		d += l.disks
	}
	return d
}

// DataDisk reports which member holds data chunk idx (0..DataDisks()-1) of
// the stripe. Left-asymmetric: data fills members left to right, skipping
// parity members.
func (l *Layout) DataDisk(stripe int64, idx int) int {
	if idx < 0 || idx >= l.DataDisks() {
		panic(fmt.Sprintf("raid: data chunk %d out of range", idx))
	}
	seen := 0
	for d := 0; d < l.disks; d++ {
		if l.isParityDisk(stripe, d) {
			continue
		}
		if seen == idx {
			return d
		}
		seen++
	}
	panic("raid: unreachable")
}

func (l *Layout) isParityDisk(stripe int64, d int) bool {
	for p := 0; p < l.parity; p++ {
		if l.ParityDisk(stripe, p) == d {
			return true
		}
	}
	return false
}

// Locate maps a user LBA to (stripe, data chunk index, offset in chunk).
func (l *Layout) Locate(lba int64) (stripe int64, chunk int, offset int64) {
	sb := l.StripeBlocks()
	stripe = lba / sb
	rem := lba % sb
	return stripe, int(rem / l.chunkBlocks), rem % l.chunkBlocks
}

// LBA is the inverse of Locate.
func (l *Layout) LBA(stripe int64, chunk int, offset int64) int64 {
	return stripe*l.StripeBlocks() + int64(chunk)*l.chunkBlocks + offset
}

// DiskOffset reports the block offset on a member device for a given
// stripe: members store one chunk per stripe at stripe*chunkBlocks.
func (l *Layout) DiskOffset(stripe int64, offset int64) int64 {
	return stripe*l.chunkBlocks + offset
}
