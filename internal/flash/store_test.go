package flash

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStoreMatchesOracle drives stores sharing one pool with random puts of
// data, records, both or neither, erases and gets, and compares every block
// with a map oracle after every step: a nil part leaves the slot as it was,
// a record comes back cut to the record size, an erased block reads as
// nothing, and a recycled extent shows nothing of its previous store.
func TestStoreMatchesOracle(t *testing.T) {
	const (
		blockSize, recordSize = 16, 8
		stores                = 3
		blocks                = 2*ExtentBlocks + 5
	)
	type slot struct{ data, rec []byte }
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := NewPool(blockSize, recordSize)
		st := make([]Store, stores)
		for i := range st {
			st[i] = pool.Store()
		}
		oracle := make([]map[int64]slot, stores)
		for i := range oracle {
			oracle[i] = map[int64]slot{}
		}
		bytesOf := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		erases := 0
		for step := 0; step < 4000; step++ {
			i := rng.Intn(stores)
			if rng.Intn(200) == 0 {
				st[i].Erase()
				clear(oracle[i])
				erases++
			} else {
				b := rng.Int63n(blocks)
				var data, rec []byte
				if rng.Intn(3) != 0 {
					data = bytesOf(blockSize)
				}
				if rng.Intn(3) == 0 {
					rec = bytesOf(1 + rng.Intn(2*recordSize))
				}
				st[i].Put(b, data, rec)
				s := oracle[i][b]
				if data != nil {
					s.data = data
				}
				if len(rec) > 0 {
					s.rec = rec[:min(len(rec), recordSize)]
				}
				oracle[i][b] = s
			}
			for j := range st {
				for b := int64(0); b < blocks; b++ {
					data, rec := st[j].Get(b)
					want := oracle[j][b]
					if !bytes.Equal(data, want.data) || (data == nil) != (want.data == nil) ||
						!bytes.Equal(rec, want.rec) || (rec == nil) != (want.rec == nil) {
						t.Fatalf("seed %d step %d: store %d block %d holds %x / %x, want %x / %x",
							seed, step, j, b, data, rec, want.data, want.rec)
					}
				}
			}
		}
		if erases == 0 {
			t.Fatalf("seed %d erased nothing", seed)
		}
		for i := range st {
			st[i].Erase()
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("seed %d: %d extents in use after every store was erased", seed, got)
		}
	}
}

// TestStoreRecyclesExtents: an erased store's extents fill the next store
// without an allocation, and show nothing of what they held.
func TestStoreRecyclesExtents(t *testing.T) {
	pool := NewPool(8, 4)
	a, b := pool.Store(), pool.Store()
	data := bytes.Repeat([]byte{7}, 8)
	for blk := int64(0); blk < ExtentBlocks; blk++ {
		a.Put(blk, data, []byte("rec"))
	}
	if got := pool.InUse(); got != 1 {
		t.Fatalf("a full extent's worth of blocks holds %d extents, want 1", got)
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.Erase()
		b.Put(3, nil, []byte("r"))
		b.Erase()
		a.Put(5, data, nil)
	})
	if allocs != 0 {
		t.Fatalf("refilling from recycled extents allocates %.1f objects/op, want 0", allocs)
	}
	for blk := int64(0); blk < ExtentBlocks; blk++ {
		d, r := a.Get(blk)
		if r != nil || (d != nil) != (blk == 5) {
			t.Fatalf("recycled extent block %d holds %x / %q", blk, d, r)
		}
	}
}

// TestNilPoolKeepsNothing: a store of a nil pool, the device without
// StoreData, ignores every put.
func TestNilPoolKeepsNothing(t *testing.T) {
	var pool *Pool
	s := pool.Store()
	s.Put(3, []byte{1, 2, 3}, []byte("rec"))
	if d, r := s.Get(3); d != nil || r != nil {
		t.Fatalf("a nil pool's store holds %x / %q", d, r)
	}
	s.Erase()
}
