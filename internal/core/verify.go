package core

import "bytes"

// StripeMismatch names a parity chunk whose stored content differs from
// the parity its stripe's data chunks encode now.
type StripeMismatch struct {
	Stripe int64 // stripe number
	Slot   int   // parity row: 0 is P, 1 is Q
	Byte   int   // first differing byte of the chunk
}

// VerifyStripes recomputes the parity of every stripe in the SMT, open
// ones included, from what its chunks hold now (a member's write buffer or
// its flash; a position the stripe never filled is a zero chunk, as in
// reconstructChunk) and calls fn, in stripe order, for each parity chunk
// that differs from it. It returns the number of stripes checked. It reads
// without scheduling events, so it is meaningful only on a drained engine:
// a write or parity generation in flight reads as a mismatch. Stripes with
// a chunk on a failed member are skipped, and so is every stripe of an
// array whose members keep no payloads.
func (c *Core) VerifyStripes(fn func(StripeMismatch)) int {
	zero := make([]byte, c.blockSize)
	data := make([][]byte, c.nData)
	parity, stored := make([][]byte, c.cfg.Parity), make([][]byte, c.cfg.Parity)
	for r := range parity {
		parity[r] = make([]byte, c.blockSize)
	}
	// content reads p's chunk; false when it cannot be read.
	content := func(p pa) ([]byte, bool) {
		if p.dev < 0 {
			return zero, true
		}
		ds := c.devs[p.dev]
		if !ds.storeData || c.failed[p.dev] {
			return nil, false
		}
		if b := ds.q.Device().Contents(int(p.zone), int64(p.off)); b != nil {
			return b, true
		}
		return zero, true
	}
	checked := 0
	c.smt.Range(func(sn int64, se *smtEntry) bool {
		if se.n == 0 {
			return true
		}
		chunks := se.chunks()
		for i := range data {
			data[i] = zero
			if i < len(chunks) {
				b, ok := content(chunks[i])
				if !ok {
					return true
				}
				data[i] = b
			}
		}
		for r, p := range se.parity() {
			b, ok := content(p)
			if !ok {
				return true
			}
			stored[r] = b
		}
		if err := c.coder.Encode(data, parity); err != nil {
			panic(err)
		}
		for r := range parity {
			if !bytes.Equal(stored[r], parity[r]) {
				i := 0
				for stored[r][i] == parity[r][i] {
					i++
				}
				fn(StripeMismatch{Stripe: sn, Slot: r, Byte: i})
			}
		}
		checked++
		return true
	})
	return checked
}
