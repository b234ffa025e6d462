// Package erasure implements the redundancy codes used by the AFA engines:
// plain XOR parity for RAID 5 and Reed–Solomon over GF(2^8) for RAID 6 and
// general m-failure tolerance. Everything is built from scratch on the
// standard AES polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d variant commonly
// used in storage RS codes).
package erasure

// gfPoly is the irreducible polynomial for GF(2^8): x^8+x^4+x^3+x^2+1.
const gfPoly = 0x11d

var (
	gfExp [512]byte // exp table doubled to avoid mod 255 in Mul
	gfLog [256]byte
	// mulTab[c][b] = c·b: one 256-byte product row per coefficient (64 KiB
	// in all), so the slice kernels do one lookup per byte.
	mulTab [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 0; c < 256; c++ {
		for b := 0; b < 256; b++ {
			mulTab[c][b] = gfMul(byte(c), byte(b))
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b. Division by zero panics.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse. Zero panics.
func gfInv(a byte) byte { return gfDiv(1, a) }

// mulSliceXorRef computes dst[i] ^= c * src[i] for all i, one byte at a
// time through the log/exp tables. It is the reference implementation the
// product-table kernels in kernels.go are tested against.
func mulSliceXorRef(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range src {
			dst[i] ^= src[i]
		}
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}
