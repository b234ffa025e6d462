package erasure

import "crypto/subtle"

// The slice kernels under Encode, DeltaRow, Reconstruct and MulXor. A
// product is one lookup in the coefficient's mulTab row; coefficient 1
// (every RAID 5 column) is plain XOR through crypto/subtle, which is
// vectorized and needs no alignment. All kernels are allocation-free.

// mulSliceXor computes dst[i] ^= c * src[i] for all i.
func mulSliceXor(c byte, src, dst []byte) {
	switch c {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src)
		return
	}
	row := &mulTab[c]
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// mulSliceXorInto is the fused RMW delta kernel: dst[i] = base[i] ^
// c*src[i] in one pass, so an in-place parity update reads old parity
// and writes new parity without an intermediate copy.
func mulSliceXorInto(c byte, src, base, dst []byte) {
	if c == 1 {
		subtle.XORBytes(dst, base, src)
		return
	}
	row := &mulTab[c]
	base, dst = base[:len(src)], dst[:len(src)]
	for i, s := range src {
		dst[i] = base[i] ^ row[s]
	}
}

// mulSliceSet computes dst[i] = c * src[i] (overwrite, no accumulate), so
// encoders can skip zero-filling the destination for the first column.
func mulSliceSet(c byte, src, dst []byte) {
	if c == 1 {
		copy(dst, src)
		return
	}
	row := &mulTab[c]
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] = row[s]
	}
}
