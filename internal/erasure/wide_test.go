package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestWideKernelsMatchScalar cross-checks every wide kernel against the
// byte-at-a-time reference for all 256 coefficients over awkward lengths
// (word-aligned, unaligned tails, tiny slices).
func TestWideKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 63, 64, 100, 4096, 4099} {
		src := make([]byte, n)
		base := make([]byte, n)
		rng.Read(src)
		rng.Read(base)
		for c := 0; c < 256; c++ {
			want := append([]byte(nil), base...)
			mulSliceXorRef(byte(c), src, want)
			got := append([]byte(nil), base...)
			mulSliceXor(byte(c), src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("mulSliceXor c=%d n=%d diverges from scalar", c, n)
			}
			set := append([]byte(nil), base...)
			mulSliceSet(byte(c), src, set)
			wantSet := make([]byte, n)
			mulSliceXorRef(byte(c), src, wantSet)
			if !bytes.Equal(set, wantSet) {
				t.Fatalf("mulSliceSet c=%d n=%d diverges from scalar", c, n)
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

func benchmarkEncode(b *testing.B, k, m, shardLen int, fn func(c *Coder, data, parity [][]byte)) {
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
		fn(c, data, parity)
	}
}

// scalarEncode is the pre-wide-kernel Encode shape, kept as the benchmark
// baseline the >=4x speedup target is measured against.
func scalarEncode(c *Coder, data, parity [][]byte) {
	for r := 0; r < c.m; r++ {
		p := parity[r]
		clear(p)
		for col := 0; col < c.k; col++ {
			mulSliceXorRef(c.parityRows[r][col], data[col], p)
		}
	}
}

func BenchmarkEncodeWide4x2(b *testing.B) {
	benchmarkEncode(b, 4, 2, 4096, func(c *Coder, data, parity [][]byte) { c.Encode(data, parity) })
}

func BenchmarkEncodeScalar4x2(b *testing.B) {
	benchmarkEncode(b, 4, 2, 4096, scalarEncode)
}

func BenchmarkEncodeWide8x3(b *testing.B) {
	benchmarkEncode(b, 8, 3, 4096, func(c *Coder, data, parity [][]byte) { c.Encode(data, parity) })
}

func BenchmarkEncodeScalar8x3(b *testing.B) {
	benchmarkEncode(b, 8, 3, 4096, scalarEncode)
}

func BenchmarkMulSliceXorWide(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		mulSliceXor(0x1d, src, dst)
	}
}

func BenchmarkMulSliceXorScalar(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		mulSliceXorRef(0x1d, src, dst)
	}
}
