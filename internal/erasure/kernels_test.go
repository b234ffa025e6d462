package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

type sliceKernel struct {
	name string
	xor  bool // coefficient fixed at 1
	set  bool // dst = c*src; otherwise dst = base ^ c*src
	run  func(c byte, src, base, dst []byte)
}

// TestWideKernelsMatchScalar checks the multiply kernels that Encode and
// Reconstruct run against the byte-at-a-time reference.
func TestWideKernelsMatchScalar(t *testing.T) {
	checkKernels(t, []sliceKernel{
		{"mulSliceXor", false, false, func(c byte, src, base, dst []byte) { copy(dst, base); mulSliceXor(c, src, dst) }},
		{"MulXor", false, false, func(c byte, src, base, dst []byte) { copy(dst, base); MulXor(c, src, dst) }},
		{"mulSliceSet", false, true, func(c byte, src, _, dst []byte) { mulSliceSet(c, src, dst) }},
	})
}

// TestMulXorIntoMatchesScalar checks the fused three-operand kernel behind
// DeltaRow against the byte-at-a-time reference.
func TestMulXorIntoMatchesScalar(t *testing.T) {
	checkKernels(t, []sliceKernel{{"mulSliceXorInto", false, false, mulSliceXorInto}})
}

// TestKernelsMatchReference checks the exported XOR kernels against the
// byte-at-a-time reference.
func TestKernelsMatchReference(t *testing.T) {
	checkKernels(t, []sliceKernel{
		{"XOR", true, false, func(_ byte, src, base, dst []byte) { XOR(dst, base, src) }},
		{"XORInto", true, false, func(_ byte, src, base, dst []byte) { copy(dst, base); XORInto(dst, src) }},
	})
}

// checkKernels runs each kernel against mulSliceXorRef: all 256
// coefficients (coefficient 1 only for the XOR kernels), lengths on either
// side of the word and cache-line edges, and operands starting 0, 1 or 3
// bytes past an 8-byte boundary: every pair of operands meets every pair
// of offsets (all 27 combinations cost 21 s under -race, these 9 a third
// of that). dst starts poisoned, so a kernel must write every byte, and
// the inputs must come back intact.
func checkKernels(t *testing.T, kernels []sliceKernel) {
	t.Helper()
	offs := []int{0, 1, 3}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097} {
		src, base, poison := make([]byte, n), make([]byte, n), bytes.Repeat([]byte{0xdb}, n)
		rng.Read(src)
		rng.Read(base)
		var srcs, bases, dsts [3][]byte
		for i, off := range offs {
			srcs[i], bases[i], dsts[i] = misalign(n, off), misalign(n, off), misalign(n, off)
			copy(srcs[i], src)
			copy(bases[i], base)
		}
		want := make([]byte, n)
		for c := 0; c < 256; c++ {
			for _, k := range kernels {
				if k.xor && c != 1 {
					continue
				}
				if k.set {
					clear(want)
				} else {
					copy(want, base)
				}
				mulSliceXorRef(byte(c), src, want)
				for si := range offs {
					for bi := range offs {
						di := (si + bi) % len(offs)
						s, b, d := srcs[si], bases[bi], dsts[di]
						copy(d, poison)
						k.run(byte(c), s, b, d)
						if !bytes.Equal(d, want) {
							t.Fatalf("%s c=%d n=%d offsets src/base/dst %d/%d/%d diverges from reference",
								k.name, c, n, offs[si], offs[bi], offs[di])
						}
						if !bytes.Equal(s, src) || !bytes.Equal(b, base) {
							t.Fatalf("%s c=%d n=%d clobbered an input", k.name, c, n)
						}
					}
				}
			}
		}
	}
}

// TestEncodeReconstructMatchScalarOracle drives whole-coder Encode and
// Reconstruct through the wide kernels and checks them against a scalar
// re-implementation for every k<=8, m<=3 geometry, including shard lengths
// that are not multiples of the 8-byte word.
func TestEncodeReconstructMatchScalarOracle(t *testing.T) {
	for k := 1; k <= 8; k++ {
		for m := 1; m <= 3; m++ {
			for _, shardLen := range []int{1, 5, 8, 13, 512, 515} {
				t.Run(fmt.Sprintf("k%d_m%d_len%d", k, m, shardLen), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(k*100 + m*10 + shardLen)))
					c, err := NewCoder(k, m)
					if err != nil {
						t.Fatal(err)
					}
					data := make([][]byte, k)
					for i := range data {
						data[i] = make([]byte, shardLen)
						rng.Read(data[i])
					}
					parity := make([][]byte, m)
					for i := range parity {
						parity[i] = make([]byte, shardLen)
					}
					if err := c.Encode(data, parity); err != nil {
						t.Fatal(err)
					}
					// Scalar oracle encode.
					for r := 0; r < m; r++ {
						want := make([]byte, shardLen)
						for col := 0; col < k; col++ {
							mulSliceXorRef(c.Coeff(r, col), data[col], want)
						}
						if !bytes.Equal(parity[r], want) {
							t.Fatalf("wide Encode parity[%d] diverges from scalar oracle", r)
						}
					}
					// Erase up to m shards (worst case: the first m) and
					// reconstruct; every recovered shard must match.
					shards := make([][]byte, k+m)
					for i := 0; i < k; i++ {
						shards[i] = append([]byte(nil), data[i]...)
					}
					for r := 0; r < m; r++ {
						shards[k+r] = append([]byte(nil), parity[r]...)
					}
					for i := 0; i < m && i < k+m; i++ {
						shards[i] = nil
					}
					if err := c.Reconstruct(shards); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < k; i++ {
						if !bytes.Equal(shards[i], data[i]) {
							t.Fatalf("reconstructed data shard %d diverges", i)
						}
					}
					for r := 0; r < m; r++ {
						if !bytes.Equal(shards[k+r], parity[r]) {
							t.Fatalf("reconstructed parity shard %d diverges", r)
						}
					}
				})
			}
		}
	}
}

// TestEncodeAllocFree proves steady-state Encode performs zero allocations.
func TestEncodeAllocFree(t *testing.T) {
	c, err := NewCoder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, 4096)
	}
	parity := [][]byte{make([]byte, 4096), make([]byte, 4096)}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Encode allocates %.1f times per run, want 0", allocs)
	}
}

func benchmarkEncode(b *testing.B, k, m, shardLen int) {
	c, err := NewCoder(k, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, shardLen)
		rng.Read(data[i])
	}
	parity := make([][]byte, m)
	for i := range parity {
		parity[i] = make([]byte, shardLen)
	}
	b.SetBytes(int64(k * shardLen))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode4x2(b *testing.B) { benchmarkEncode(b, 4, 2, 4096) }

func BenchmarkEncode8x3(b *testing.B) { benchmarkEncode(b, 8, 3, 4096) }

func BenchmarkMulSliceXor(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		mulSliceXor(0x1d, src, dst)
	}
}

func BenchmarkMulSliceXorRef(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		mulSliceXorRef(0x1d, src, dst)
	}
}
