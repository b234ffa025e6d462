package erasure

import (
	"crypto/subtle"
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
	return c, nil
}

// Encode computes parity shards from data shards. data must hold k
// equal-length shards; parity must hold m shards of the same length and is
// overwritten.
func (c *Coder) Encode(data, parity [][]byte) error {
	if err := c.checkShards(data, parity); err != nil {
		return err
	}
	for r := 0; r < c.m; r++ {
		p := parity[r]
		// First column overwrites (no zero-fill pass), the rest accumulate.
		mulSliceSet(c.parityRows[r][0], data[0], p)
		for col := 1; col < c.k; col++ {
			mulSliceXor(c.parityRows[r][col], data[col], p)
		}
	}
	return nil
}

// DeltaRow is the parity-delta path for in-place RMW: given the XOR
// difference of data shard idx (delta = old ^ new), newParity = oldParity
// ^ Coeff(r, idx)*delta in one pass, leaving oldParity intact — a
// partial-stripe update touches only the delta instead of re-encoding the
// stripe. Engines use the fused form because the pre-update parity must
// stay live (an in-flight read of the old stripe) while the updated copy
// is produced. Allocation-free.
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
// It is the fast path RAID 5 engines use for single-parity math. dst may
// equal an input exactly; partial overlap panics (crypto/subtle checks it
// from Go 1.24 on).
func XOR(dst, a, b []byte) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("erasure: XOR length mismatch")
	}
	subtle.XORBytes(dst, a, b)
}

// XORInto accumulates src into dst (dst ^= src). dst may equal an input
// exactly; partial overlap panics (crypto/subtle checks it from Go 1.24
// on).
func XORInto(dst, src []byte) {
	if len(dst) != len(src) {
		panic("erasure: XORInto length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
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
