package erasure

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// misalign returns a view of fresh memory starting off bytes past an
// 8-byte-aligned base, so operands can start on different word offsets.
func misalign(n, off int) []byte {
	return make([]byte, n+off)[off : off+n]
}

// TestDeltaMatchesReencode is the parity-delta property test: for random
// partial-stripe updates, DeltaRow-applied parity must equal a full
// re-encode for every row and leave the old parity untouched — across
// geometries, lengths around the word and cache-line edges, and buffers
// that start off an 8-byte boundary.
func TestDeltaMatchesReencode(t *testing.T) {
	lengths := []int{1, 7, 63, 64, 65, 127, 128, 200, 511, 512, 4096, 4099}
	for _, geom := range []struct{ k, m int }{{4, 1}, {5, 2}, {6, 3}, {9, 4}} {
		for _, shardLen := range lengths {
			for _, off := range []int{0, 3} {
				t.Run(fmt.Sprintf("k%d_m%d_len%d_off%d", geom.k, geom.m, shardLen, off), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(geom.k*1000 + geom.m*100 + shardLen + off)))
					c, err := NewCoder(geom.k, geom.m)
					if err != nil {
						t.Fatal(err)
					}
					data := make([][]byte, geom.k)
					for i := range data {
						data[i] = misalign(shardLen, off)
						rng.Read(data[i])
					}
					parity := make([][]byte, geom.m)
					for i := range parity {
						parity[i] = misalign(shardLen, off)
					}
					if err := c.Encode(data, parity); err != nil {
						t.Fatal(err)
					}
					// Random partial-stripe update: new content for one shard.
					idx := rng.Intn(geom.k)
					newShard := misalign(shardLen, off)
					rng.Read(newShard)
					delta := misalign(shardLen, off)
					XOR(delta, data[idx], newShard)

					data[idx] = newShard
					want := make([][]byte, geom.m)
					for r := range want {
						want[r] = make([]byte, shardLen)
					}
					if err := c.Encode(data, want); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < geom.m; r++ {
						oldP := append([]byte(nil), parity[r]...)
						newP := misalign(shardLen, off)
						c.DeltaRow(r, idx, delta, oldP, newP)
						if !bytes.Equal(newP, want[r]) {
							t.Fatalf("DeltaRow parity[%d] != full re-encode", r)
						}
						if !bytes.Equal(oldP, parity[r]) {
							t.Fatalf("DeltaRow clobbered old parity[%d]", r)
						}
					}
				})
			}
		}
	}
}

// TestDeltaAllocFree gates the RMW path: the fused parity delta and the
// accumulate-into-fresh-parity kernel allocate nothing.
func TestDeltaAllocFree(t *testing.T) {
	c, err := NewCoder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	delta := make([]byte, 4096)
	oldP := make([]byte, 4096)
	newP := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(delta)
	if allocs := testing.AllocsPerRun(100, func() {
		c.DeltaRow(0, 1, delta, oldP, newP)
		MulXor(c.Coeff(1, 1), delta, newP)
	}); allocs != 0 {
		t.Fatalf("delta path allocates %.1f times per run, want 0", allocs)
	}
}

func BenchmarkDeltaRowFused(b *testing.B) {
	c, _ := NewCoder(4, 2)
	delta := make([]byte, 4096)
	oldP := make([]byte, 4096)
	newP := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(delta)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		c.DeltaRow(1, 2, delta, oldP, newP)
	}
}
