package erasure

import (
	"errors"
	"fmt"
)

// Coder encodes k data shards into m parity shards and reconstructs up to m
// missing shards. For m == 1 the code degenerates to XOR parity (RAID 5);
// larger m uses a systematic Reed–Solomon code built from an extended
// Vandermonde matrix reduced to systematic form.
type Coder struct {
	k, m int
	// parityRows[r][c] is the coefficient applied to data shard c when
	// producing parity shard r.
	parityRows [][]byte
	// Packed per-column product tables (see gf256pack.go): one table load
	// yields the products for every parity row at once. Built in NewCoder
	// for the geometries the AFA engines use; nil for m == 1 (plain XOR)
	// and m > 3 (generic wide path).
	pack2 [][256]uint16 // m == 2
	pack3 [][256]uint32 // m == 3
}

// ErrTooManyMissing reports an unrecoverable erasure pattern.
var ErrTooManyMissing = errors.New("erasure: more missing shards than parity can recover")

// NewCoder builds a coder for k data and m parity shards. k >= 1, m >= 1,
// k+m <= 255.
func NewCoder(k, m int) (*Coder, error) {
	if k < 1 || m < 1 || k+m > 255 {
		return nil, fmt.Errorf("erasure: invalid geometry k=%d m=%d", k, m)
	}
	c := &Coder{k: k, m: m}
	// Parity coefficient matrix. A systematic code [I; P] is MDS iff every
	// square submatrix of P is nonsingular. A Cauchy matrix
	// P[r][c] = 1/(x_r ^ y_c) with all x_r, y_c distinct has exactly that
	// property over any field (unlike truncated Vandermonde over GF(2^8),
	// the classic erasure-coding pitfall). m == 1 is special-cased to the
	// all-ones row so RAID 5 parity is plain XOR.
	c.parityRows = make([][]byte, m)
	for r := 0; r < m; r++ {
		row := make([]byte, k)
		for col := 0; col < k; col++ {
			if m == 1 {
				row[col] = 1
			} else {
				row[col] = gfInv(byte(r) ^ byte(m+col))
			}
		}
		c.parityRows[r] = row
	}
	switch m {
	case 2:
		c.pack2 = make([][256]uint16, k)
		for col := 0; col < k; col++ {
			c.pack2[col] = buildPair2(c.parityRows[0][col], c.parityRows[1][col])
		}
	case 3:
		c.pack3 = make([][256]uint32, k)
		for col := 0; col < k; col++ {
			c.pack3[col] = buildPair3(c.parityRows[0][col], c.parityRows[1][col], c.parityRows[2][col])
		}
	}
	return c, nil
}

// K reports the data shard count.
func (c *Coder) K() int { return c.k }

// M reports the parity shard count.
func (c *Coder) M() int { return c.m }

// Encode computes parity shards from data shards. data must hold k
// equal-length shards; parity must hold m shards of the same length and is
// overwritten.
func (c *Coder) Encode(data, parity [][]byte) error {
	if err := c.checkShards(data, parity); err != nil {
		return err
	}
	switch c.m {
	case 1:
		c.encode1(data, parity[0])
	case 2:
		c.encode2(data, parity[0], parity[1])
	case 3:
		c.encode3(data, parity[0], parity[1], parity[2])
	default:
		for r := 0; r < c.m; r++ {
			p := parity[r]
			// First column overwrites (no zero-fill pass), the rest accumulate.
			mulSliceSet(c.parityRows[r][0], data[0], p)
			for col := 1; col < c.k; col++ {
				mulSliceXor(c.parityRows[r][col], data[col], p)
			}
		}
	}
	return nil
}

// encode1 is RAID 5 parity: p = XOR of all data shards, four columns per
// pass.
func (c *Coder) encode1(data [][]byte, p []byte) {
	col, acc := 0, false
	for ; col+4 <= c.k; col += 4 {
		xorSet4(data[col], data[col+1], data[col+2], data[col+3], p, acc)
		acc = true
	}
	for ; col < c.k; col++ {
		if acc {
			xorIntoWide(p, data[col])
		} else {
			copy(p, data[col])
			acc = true
		}
	}
}

// encode2 is the m == 2 hot path: packed pair tables, four columns fused
// per pass so each source word is loaded once and parity stays in
// registers.
func (c *Coder) encode2(data [][]byte, p0, p1 []byte) {
	col, acc := 0, false
	for ; col+4 <= c.k; col += 4 {
		encPack2x4(&c.pack2[col], &c.pack2[col+1], &c.pack2[col+2], &c.pack2[col+3],
			data[col], data[col+1], data[col+2], data[col+3], p0, p1, acc)
		acc = true
	}
	for ; col < c.k; col++ {
		encPack2x1(&c.pack2[col], data[col], p0, p1, acc)
		acc = true
	}
}

// encode3 mirrors encode2 with triple-packed tables.
func (c *Coder) encode3(data [][]byte, p0, p1, p2 []byte) {
	col, acc := 0, false
	for ; col+4 <= c.k; col += 4 {
		encPack3x4(&c.pack3[col], &c.pack3[col+1], &c.pack3[col+2], &c.pack3[col+3],
			data[col], data[col+1], data[col+2], data[col+3], p0, p1, p2, acc)
		acc = true
	}
	for ; col < c.k; col++ {
		encPack3x1(&c.pack3[col], data[col], p0, p1, p2, acc)
		acc = true
	}
}

// Delta is the parity-delta fast path for in-place RMW: given the XOR
// difference of data shard idx (delta = old ^ new), it folds
// Coeff(r, idx)*delta into each parity shard — partial-stripe updates
// touch only the delta instead of re-encoding the stripe. Allocation-free.
func (c *Coder) Delta(idx int, delta []byte, parity [][]byte) error {
	if idx < 0 || idx >= c.k {
		return fmt.Errorf("erasure: shard index %d out of range", idx)
	}
	for r := 0; r < c.m; r++ {
		if len(parity[r]) != len(delta) {
			return errors.New("erasure: parity shard length mismatch")
		}
		mulSliceXor(c.parityRows[r][idx], delta, parity[r])
	}
	return nil
}

// DeltaRow is Delta for a single parity row r, fused: newParity =
// oldParity ^ Coeff(r, idx)*delta in one pass, leaving oldParity intact.
// Engines use it when the pre-update parity must stay live (an in-flight
// read of the old stripe) while the updated copy is produced.
func (c *Coder) DeltaRow(r, idx int, delta, oldParity, newParity []byte) {
	if r < 0 || r >= c.m || idx < 0 || idx >= c.k {
		panic("erasure: DeltaRow index out of range")
	}
	if len(oldParity) != len(delta) || len(newParity) != len(delta) {
		panic("erasure: DeltaRow length mismatch")
	}
	mulSliceXorInto(c.parityRows[r][idx], delta, oldParity, newParity)
}

// Reconstruct fills in missing shards. shards holds k data shards followed
// by m parity shards; missing entries are nil and are allocated and filled
// on success. Present shards must all share one length.
func (c *Coder) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("erasure: want %d shards, got %d", c.k+c.m, len(shards))
	}
	shardLen := -1
	var missing []int
	for i, s := range shards {
		if s == nil {
			missing = append(missing, i)
			continue
		}
		if shardLen < 0 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return errors.New("erasure: shard length mismatch")
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > c.m {
		return ErrTooManyMissing
	}
	if shardLen < 0 {
		return errors.New("erasure: all shards missing")
	}

	// Build the generator rows for every shard: identity rows for data,
	// parityRows for parity. Select k rows corresponding to present shards,
	// invert that submatrix, and use it to recover missing data shards.
	missingData := false
	for _, i := range missing {
		if i < c.k {
			missingData = true
			break
		}
	}
	dataShards := make([][]byte, c.k)
	for i := 0; i < c.k; i++ {
		dataShards[i] = shards[i]
	}
	if missingData {
		// Choose k present shards (prefer data shards, fill with parity).
		type srcRow struct {
			row   []byte // coefficients over data shards
			shard []byte
		}
		var sources []srcRow
		for i := 0; i < c.k && len(sources) < c.k; i++ {
			if shards[i] != nil {
				row := make([]byte, c.k)
				row[i] = 1
				sources = append(sources, srcRow{row, shards[i]})
			}
		}
		for r := 0; r < c.m && len(sources) < c.k; r++ {
			if shards[c.k+r] != nil {
				row := make([]byte, c.k)
				copy(row, c.parityRows[r])
				sources = append(sources, srcRow{row, shards[c.k+r]})
			}
		}
		if len(sources) < c.k {
			return ErrTooManyMissing
		}
		// Invert the k x k matrix of source rows.
		mat := make([][]byte, c.k)
		inv := make([][]byte, c.k)
		for i := 0; i < c.k; i++ {
			mat[i] = make([]byte, c.k)
			copy(mat[i], sources[i].row)
			inv[i] = make([]byte, c.k)
			inv[i][i] = 1
		}
		for col := 0; col < c.k; col++ {
			pivot := -1
			for r := col; r < c.k; r++ {
				if mat[r][col] != 0 {
					pivot = r
					break
				}
			}
			if pivot < 0 {
				return errors.New("erasure: singular recovery matrix")
			}
			mat[col], mat[pivot] = mat[pivot], mat[col]
			inv[col], inv[pivot] = inv[pivot], inv[col]
			f := gfInv(mat[col][col])
			for j := 0; j < c.k; j++ {
				mat[col][j] = gfMul(mat[col][j], f)
				inv[col][j] = gfMul(inv[col][j], f)
			}
			for r := 0; r < c.k; r++ {
				if r == col || mat[r][col] == 0 {
					continue
				}
				g := mat[r][col]
				for j := 0; j < c.k; j++ {
					mat[r][j] ^= gfMul(g, mat[col][j])
					inv[r][j] ^= gfMul(g, inv[col][j])
				}
			}
		}
		// Recover each missing data shard d: data[d] = sum_j inv[d][j] * source[j].
		for _, d := range missing {
			if d >= c.k {
				continue
			}
			out := make([]byte, shardLen)
			for j := 0; j < c.k; j++ {
				mulSliceXor(inv[d][j], sources[j].shard, out)
			}
			shards[d] = out
			dataShards[d] = out
		}
	}
	// Recompute any missing parity shards from (now complete) data.
	for _, i := range missing {
		if i < c.k {
			continue
		}
		r := i - c.k
		out := make([]byte, shardLen)
		for col := 0; col < c.k; col++ {
			mulSliceXor(c.parityRows[r][col], dataShards[col], out)
		}
		shards[i] = out
	}
	return nil
}

// Verify reports whether the parity shards are consistent with the data.
func (c *Coder) Verify(data, parity [][]byte) (bool, error) {
	if err := c.checkShards(data, parity); err != nil {
		return false, err
	}
	tmp := make([][]byte, c.m)
	for i := range tmp {
		tmp[i] = make([]byte, len(parity[i]))
	}
	if err := c.Encode(data, tmp); err != nil {
		return false, err
	}
	for r := range tmp {
		for i := range tmp[r] {
			if tmp[r][i] != parity[r][i] {
				return false, nil
			}
		}
	}
	return true, nil
}

func (c *Coder) checkShards(data, parity [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("erasure: want %d data shards, got %d", c.k, len(data))
	}
	if len(parity) != c.m {
		return fmt.Errorf("erasure: want %d parity shards, got %d", c.m, len(parity))
	}
	n := len(data[0])
	for _, s := range data {
		if len(s) != n {
			return errors.New("erasure: data shard length mismatch")
		}
	}
	for _, s := range parity {
		if len(s) != n {
			return errors.New("erasure: parity shard length mismatch")
		}
	}
	return nil
}

// XOR computes dst = a ^ b elementwise; all slices must share a length.
// It is the fast path RAID 5 engines use for single-parity math.
func XOR(dst, a, b []byte) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("erasure: XOR length mismatch")
	}
	xorWide(dst, a, b)
}

// XORInto accumulates src into dst (dst ^= src).
func XORInto(dst, src []byte) {
	if len(dst) != len(src) {
		panic("erasure: XORInto length mismatch")
	}
	xorIntoWide(dst, src)
}

// Coeff reports the generator coefficient applied to data shard col when
// producing parity row r — exposed so engines can maintain incremental
// parity accumulators (partial parity) without re-encoding whole stripes.
func (c *Coder) Coeff(r, col int) byte {
	if r < 0 || r >= c.m || col < 0 || col >= c.k {
		panic("erasure: coefficient index out of range")
	}
	return c.parityRows[r][col]
}

// MulXor accumulates coeff*src into dst over GF(256): dst ^= coeff*src.
func MulXor(coeff byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("erasure: MulXor length mismatch")
	}
	mulSliceXor(coeff, src, dst)
}
