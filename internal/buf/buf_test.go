package buf

import (
	"strings"
	"testing"
)

func TestGetReleaseRecycles(t *testing.T) {
	p := NewPool()
	b := p.Get(4096, 26)
	if got := len(b.Bytes()); got != 4096 {
		t.Fatalf("Bytes len = %d, want 4096", got)
	}
	if got := len(b.mem) - len(b.Bytes()); got < 26 {
		t.Fatalf("OOB room = %d, want at least 26", got)
	}
	if p.Live() != 1 {
		t.Fatalf("Live = %d, want 1", p.Live())
	}
	first := &b.Bytes()[0]
	b.Release()
	if p.Live() != 0 {
		t.Fatalf("Live after release = %d, want 0", p.Live())
	}
	b2 := p.Get(4096, 26)
	if &b2.Bytes()[0] != first {
		t.Fatalf("second Get did not reuse the released slab")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Hits=1 Misses=1", st)
	}
	b2.Release()
}

func TestRefcountHoldsSlab(t *testing.T) {
	p := NewPool()
	b := p.Get(64, 0)
	b.Retain()
	b.Release()
	if p.Live() != 1 {
		t.Fatalf("Live = %d, want 1 while a reference is held", p.Live())
	}
	copy(b.Bytes(), "still mine")
	b.Release()
	if p.Live() != 0 {
		t.Fatalf("Live = %d, want 0", p.Live())
	}
}

func TestOversizeFallsBackToHeap(t *testing.T) {
	p := NewPool()
	b := p.Get(2<<20, 0)
	if b.class != -1 {
		t.Fatalf("class = %d, want -1 (oversize)", b.class)
	}
	b.Release()
	if st := p.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
	// The record (not the slab) is recycled.
	b2 := p.Get(64, 0)
	if b2 != b {
		t.Fatalf("oversize release did not recycle the Buf record")
	}
	b2.Release()
}

func TestAllocFreeRaw(t *testing.T) {
	p := NewPool()
	s := p.Alloc(26)
	if len(s) != 26 || cap(s) != 64 {
		t.Fatalf("Alloc(26): len %d cap %d, want 26/64", len(s), cap(s))
	}
	if p.RawLive() != 1 {
		t.Fatalf("RawLive = %d, want 1", p.RawLive())
	}
	p.Free(s)
	s2 := p.Alloc(40)
	if &s2[:cap(s2)][0] != &s[:cap(s)][0] {
		t.Fatalf("Alloc after Free did not reuse the slab")
	}
	p.Free(s2)
	if p.RawLive() != 0 {
		t.Fatalf("RawLive = %d, want 0", p.RawLive())
	}
	z := p.AllocZero(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("AllocZero byte %d = %#x", i, v)
		}
	}
	p.Free(z)
	p.Free(nil) // no-op
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Get(64, 0)
	b.Release()
	mustPanic(t, "double free", b.Release)
}

func TestRetainAfterReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Get(64, 0)
	b.Release()
	mustPanic(t, "use-after-release", b.Retain)
}

func TestPoisonDetectsUseAfterRelease(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	b := p.Get(64, 0)
	stale := b.Bytes()
	b.Release()
	stale[7] = 0x42 // write through a released buffer
	mustPanic(t, "use-after-release", func() { p.Get(64, 0) })
}

func TestPoisonCleanReuseDoesNotPanic(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	b := p.Get(64, 8)
	copy(b.Bytes(), "scribble")
	copy(b.mem[64:], "oob data")
	b.Release()
	b2 := p.Get(64, 8) // must not panic: slab was poisoned after release
	b2.Release()
}

func TestNilHelpers(t *testing.T) {
	Retain(nil)
	Release(nil)
	p := NewPool()
	b := p.Get(64, 0)
	Retain(b)
	Release(b)
	Release(b)
	if p.Live() != 0 {
		t.Fatalf("Live = %d, want 0", p.Live())
	}
}

// TestPoolCycleAllocFree gates the steady-state contract: once warm, a
// Get/Retain/Release cycle performs zero heap allocations. (Named so the
// CI allocation gate `go test -run AllocFree ./...` picks it up.)
func TestPoolCycleAllocFree(t *testing.T) {
	p := NewPool()
	warm := p.Get(4096, 26)
	o := p.Alloc(26)
	p.Free(o)
	warm.Release()
	n := testing.AllocsPerRun(200, func() {
		b := p.Get(4096, 26)
		b.Retain()
		b.Release()
		s := p.Alloc(26)
		p.Free(s)
		b.Release()
	})
	if n != 0 {
		t.Fatalf("steady-state cycle allocates %.1f objects/run, want 0", n)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1},
		{4096, 6}, {4097, 7}, {1 << 20, numClasses - 1}, {1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}
