package blockdev

import "biza/internal/sim"

// InRange reports whether [lba, lba+nblocks) is a non-empty range inside a
// device of the given capacity.
func InRange(lba int64, nblocks int, blocks int64) bool {
	return nblocks > 0 && lba >= 0 && lba+int64(nblocks) <= blocks
}

// CheckWrite is the prologue of a Write on a device of the given capacity:
// it reports whether the range is valid and otherwise fails the request
// with ErrOutOfRange a microsecond later (sim.Deliver: never before the
// Write call returns).
func CheckWrite(eng *sim.Engine, lba int64, nblocks int, blocks int64, done func(WriteResult)) bool {
	if InRange(lba, nblocks, blocks) {
		return true
	}
	sim.Deliver(eng, sim.Microsecond, done, WriteResult{Err: ErrOutOfRange, Latency: sim.Microsecond})
	return false
}

// CheckRead is CheckWrite for a Read.
func CheckRead(eng *sim.Engine, lba int64, nblocks int, blocks int64, done func(ReadResult)) bool {
	if InRange(lba, nblocks, blocks) {
		return true
	}
	sim.Deliver(eng, sim.Microsecond, done, ReadResult{Err: ErrOutOfRange, Latency: sim.Microsecond})
	return false
}

// Run is one device read of a scattered request: Blocks blocks at Off of
// Unit (a member, a zone), which land at block At of the request's buffer.
type Run struct {
	Unit   int
	Off    int64
	Blocks int
	At     int
}

// Runs gathers the blocks of one read, in request order, into as few
// device reads as possible. A recycled request record keeps its Runs and
// starts the next read from rs[:0], so a warm record gathers without
// allocating.
type Runs []Run

// Add places block at of the request at off of unit, extending the last
// run when it continues it in both the unit and the request.
func (rs *Runs) Add(unit int, off int64, at int) {
	if n := len(*rs); n > 0 {
		last := &(*rs)[n-1]
		if last.Unit == unit && last.Off+int64(last.Blocks) == off && last.At+last.Blocks == at {
			last.Blocks++
			return
		}
	}
	*rs = append(*rs, Run{Unit: unit, Off: off, Blocks: 1, At: at})
}

// WriteSync submits one write and runs eng dry. It is for callers with
// nothing else in flight (tests, examples, the facade's and Volume's sync
// calls): a write still outstanding when the engine has no event left is a
// hang in the stack below, and returns ErrIncomplete.
func WriteSync(eng *sim.Engine, d Device, lba int64, nblocks int, data []byte) WriteResult {
	res := WriteResult{Err: ErrIncomplete}
	d.Write(lba, nblocks, data, func(r WriteResult) { res = r })
	eng.Run()
	return res
}

// ReadSync is WriteSync for a read.
func ReadSync(eng *sim.Engine, d Device, lba int64, nblocks int) ReadResult {
	res := ReadResult{Err: ErrIncomplete}
	d.Read(lba, nblocks, func(r ReadResult) { res = r })
	eng.Run()
	return res
}

// Pattern returns n bytes that differ by seed and by position, so a
// misplaced or stale block shows up in a comparison.
func Pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*31)
	}
	return b
}
