package pagetab

import (
	"math/rand"
	"sort"
	"testing"
)

// TestAgainstMap drives a Table and a map[int64]int with the same random
// Set/Ptr/Get/Delete/Range sequence over three key shapes and requires equal
// contents, ascending Range, equal Len, and no page left in use once
// everything is deleted.
func TestAgainstMap(t *testing.T) {
	tests := []struct {
		name string
		// key draws the next key to operate on; step counts operations.
		key func(rng *rand.Rand, step int) int64
	}{
		{"dense", func(rng *rand.Rand, _ int) int64 { return rng.Int63n(3 * PageSize) }},
		{"sparse", func(rng *rand.Rand, _ int) int64 { return rng.Int63n(1 << 22) }},
		// The SMT's shape: keys in a window that only moves up, old ones
		// dying behind it.
		{"advancing", func(rng *rand.Rand, step int) int64 { return int64(step/4) + rng.Int63n(2*PageSize) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var tab Table[int]
			ref := map[int64]int{}
			for step := 0; step < 40000; step++ {
				k := tt.key(rng, step)
				switch op := rng.Intn(12); {
				case op < 5:
					v := rng.Int() | 1 // never the zero value: absence reads as 0
					tab.Set(k, v)
					ref[k] = v
				case op < 7:
					// In place: a fresh entry reads as 0 through the
					// pointer, an existing one as its value.
					p := tab.Ptr(k)
					if *p != ref[k] {
						t.Fatalf("step %d: *Ptr(%d) = %d, want %d", step, k, *p, ref[k])
					}
					*p += 2
					ref[k] += 2
				case op < 10:
					tab.Delete(k)
					delete(ref, k)
				default:
					if got, want := tab.Get(k), ref[k]; got != want {
						t.Fatalf("step %d: Get(%d) = %d, want %d", step, k, got, want)
					}
				}
				if tab.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, tab.Len(), len(ref))
				}
				if step%5000 == 0 {
					checkRange(t, &tab, ref)
				}
			}
			checkRange(t, &tab, ref)
			if tab.Get(-1) != 0 || tab.Get(1<<40) != 0 {
				t.Fatal("a key outside the directory reads as present")
			}
			tab.Delete(-1)
			tab.Delete(1 << 40)
			// Delete everything from inside Range: the one mutation it allows.
			tab.Range(func(k int64, _ int) bool {
				tab.Delete(k)
				delete(ref, k)
				return true
			})
			if tab.Len() != 0 || len(ref) != 0 || pagesInUse(&tab) != 0 {
				t.Fatalf("after deleting everything: Len %d, %d keys unvisited, %d pages in use",
					tab.Len(), len(ref), pagesInUse(&tab))
			}
		})
	}
}

// pagesInUse counts the pages a table holds.
func pagesInUse[V any](t *Table[V]) (n int) {
	for _, p := range t.dir {
		if p != nil {
			n++
		}
	}
	return n
}

// checkRange requires Range to visit exactly ref's entries, ascending.
func checkRange(t *testing.T, tab *Table[int], ref map[int64]int) {
	t.Helper()
	want := make([]int64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	i := 0
	tab.Range(func(k int64, v int) bool {
		if i >= len(want) || k != want[i] || v != ref[k] {
			t.Fatalf("Range entry %d = (%d, %d), want key %v of %d", i, k, v, want[min(i, len(want)-1)], len(want))
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("Range visited %d entries, want %d", i, len(want))
	}
}

func TestRangeStops(t *testing.T) {
	var tab Table[int]
	for k := int64(0); k < 3*PageSize; k += 7 {
		tab.Set(k, 1)
	}
	n := 0
	tab.Range(func(int64, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Range called fn %d times after it returned false at 5", n)
	}
}

// TestClearAndSharedPool: Clear empties a table and hands its pages to the
// pool, where a sibling table finds them.
func TestClearAndSharedPool(t *testing.T) {
	var pool Pool[[]byte]
	a, b := pool.Table(), pool.Table()
	for k := int64(0); k < 4*PageSize; k++ {
		a.Set(k, []byte{1})
	}
	a.Clear()
	if a.Len() != 0 || pagesInUse(&a) != 0 || a.Get(5) != nil || a.dir != nil {
		t.Fatalf("cleared table: Len %d, Pages %d, dir %v", a.Len(), pagesInUse(&a), a.dir)
	}
	if len(pool.free) != 4 {
		t.Fatalf("pool holds %d pages after Clear, want 4", len(pool.free))
	}
	for k := int64(0); k < 4*PageSize; k += PageSize {
		b.Set(k, nil)
	}
	if len(pool.free) != 0 || pagesInUse(&b) != 4 {
		t.Fatalf("sibling took %d pages and left %d in the pool, want 4 and 0", pagesInUse(&b), len(pool.free))
	}
	if b.Get(0) != nil || b.Get(1) != nil || b.Len() != 4 {
		t.Fatal("a recycled page was not zeroed, or nil values are not entries")
	}
}

// TestTableAllocFree: a window of keys sliding upward (a zone's write
// buffer, the live stripes of the SMT) reuses the pages it leaves behind.
func TestTableAllocFree(t *testing.T) {
	var tab Table[*int]
	v := new(int)
	const window = PageSize + PageSize/2
	next := int64(0)
	slide := func() {
		tab.Set(next, v)
		tab.Delete(next - window)
		next++
	}
	// Touch the far end of the measured span first: the directory (one
	// pointer per page of keys) grows with the largest key, not per step.
	tab.Set(32*PageSize, v)
	tab.Delete(32 * PageSize)
	for next < 4*PageSize {
		slide()
	}
	if allocs := testing.AllocsPerRun(20*PageSize, slide); allocs != 0 {
		t.Fatalf("sliding window allocates %.2f per step, want 0", allocs)
	}
	if tab.Len() != window || pagesInUse(&tab) > 3 {
		t.Fatalf("window holds %d entries on %d pages, want %d on at most 3", tab.Len(), pagesInUse(&tab), window)
	}
}
