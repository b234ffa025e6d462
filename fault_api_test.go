package biza

// Public fault/recovery API coverage: crash-at-every-point sweeps, the
// declarative fault spec (power cuts, member death with auto-replace), and
// bit-identical reproduction of faulty runs from a seed.

import (
	"bytes"
	"errors"
	"testing"

	"biza/internal/blockdev"
)

func fpat(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*13)
	}
	return b
}

func TestCrashRejectsIOUntilRecovered(t *testing.T) {
	a, err := New(Options{StoreData: true, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSync(0, 4, fpat(1, 4*4096)); err != nil {
		t.Fatal(err)
	}
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteSync(8, 1, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write while crashed: %v", err)
	}
	if _, err := a.ReadSync(0, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read while crashed: %v", err)
	}
	if err := a.Crash(); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadSync(0, 4)
	if err != nil || !bytes.Equal(got, fpat(1, 4*4096)) {
		t.Fatalf("post-recovery read: %v", err)
	}
	if err := a.WriteSync(8, 1, fpat(2, 4096)); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

func TestCrashRecoverRequiresBIZA(t *testing.T) {
	a, err := New(Options{Kind: RAIZN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Crash(); err == nil {
		t.Fatal("RAIZN accepted Crash")
	}
	if err := a.Recover(); err == nil {
		t.Fatal("RAIZN accepted Recover")
	}
	// A power-cut schedule needs the recovery path, so non-BIZA kinds
	// must reject it at construction.
	_, err = New(Options{Kind: RAIZN, Seed: 1,
		Faults: &FaultSpec{Rules: []FaultRule{PowerCut(1000)}}})
	if err == nil {
		t.Fatal("RAIZN accepted a power-loss fault spec")
	}
}

func TestPowerLossSweepRestoresAckedData(t *testing.T) {
	// Cut power at a sweep of points across a write burst; after recovery
	// every acknowledged write must read back byte-identical. This is the
	// one-directional durability contract: acked data survives, unacked
	// data may or may not.
	const writes = 30
	// Profile the burst to learn its duration, then sweep cut points.
	profile, err := New(Options{StoreData: true, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if err := profile.WriteSync(int64(i*3), 1, fpat(byte(i+1), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	total := profile.Now()
	if total <= 0 {
		t.Fatal("profiling run advanced no time")
	}

	const points = 10
	for p := 0; p <= points; p++ {
		cut := total * int64(p) / points
		a, err := New(Options{StoreData: true, Seed: 50})
		if err != nil {
			t.Fatal(err)
		}
		acked := map[int64][]byte{}
		for i := 0; i < writes; i++ {
			lba := int64(i * 3)
			data := fpat(byte(i+1), 4096)
			a.p.Dev.Write(lba, 1, data, func(r blockdev.WriteResult) {
				if r.Err == nil {
					acked[lba] = data
				}
			})
		}
		a.RunFor(cut + 1)
		if err := a.Crash(); err != nil {
			t.Fatalf("cut %d: %v", p, err)
		}
		if err := a.Recover(); err != nil {
			t.Fatalf("cut %d recover: %v", p, err)
		}
		for lba, want := range acked {
			got, err := a.ReadSync(lba, 1)
			if err != nil {
				t.Fatalf("cut %d lba %d: %v", p, lba, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cut %d: acked lba %d lost or torn", p, lba)
			}
		}
		// The recovered array keeps working.
		if err := a.WriteSync(500, 1, fpat(0xEE, 4096)); err != nil {
			t.Fatalf("cut %d post-recovery write: %v", p, err)
		}
	}
}

func TestFaultSpecPowerCutAutoRecovers(t *testing.T) {
	// A PowerLoss rule crashes and recovers the platform from inside the
	// simulation; acked data written before the cut survives it.
	cut := int64(1_000_000_000) // 1s of virtual time, long after the writes
	a, err := New(Options{StoreData: true, Seed: 51,
		Faults: &FaultSpec{Rules: []FaultRule{PowerCut(cut)}}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]byte{}
	for i := 0; i < 24; i++ {
		lba := int64(i * 5)
		data := fpat(byte(i+7), 4096)
		a.p.Dev.Write(lba, 1, data, func(r blockdev.WriteResult) {
			if r.Err == nil {
				want[lba] = data
			}
		})
	}
	// Drain the burst without crossing the scheduled cut (a full Run would
	// fast-forward straight through it).
	a.RunFor(cut - 1)
	if len(want) == 0 {
		t.Fatal("no write acked before the cut — test degenerate")
	}
	if a.p.Crashed() {
		t.Fatal("platform crashed before the scheduled cut")
	}
	a.Run() // cross the cut: crash, then the automatic recovery scan
	if a.p.Crashed() {
		t.Fatal("platform still crashed after scheduled recovery")
	}
	for lba, data := range want {
		got, err := a.ReadSync(lba, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("lba %d after power cut: %v", lba, err)
		}
	}
}

func TestMemberDeathMidWorkloadAutoReplace(t *testing.T) {
	// The ISSUE's acceptance scenario: one member dies mid-workload; every
	// read is still served correctly (byte-compared), the hot-swap
	// completes, and full fault tolerance is restored.
	workload := func(a *Array, want map[int64][]byte, half bool) {
		n := 160
		if half {
			n = 80
		}
		for i := 0; i < n; i++ {
			lba := int64(i % 100)
			data := fpat(byte(i+1), 4096)
			if err := a.WriteSync(lba, 1, data); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			if want != nil {
				want[lba] = data
			}
		}
	}
	// Profile the first half to place the kill mid-workload.
	profile, err := New(Options{StoreData: true, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	workload(profile, nil, true)
	killAt := profile.Now()

	a, err := New(Options{StoreData: true, Seed: 52, AutoReplace: true,
		Faults: &FaultSpec{Rules: []FaultRule{KillDevice(2, killAt)}}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]byte{}
	workload(a, want, false)
	a.Run()
	if a.Reconstructions() == 0 {
		t.Fatal("member death left no reconstruction trace — kill missed the workload")
	}
	for i, s := range a.Health() {
		if s != MemberHealthy {
			t.Fatalf("member %d = %v after auto-replace", i, s)
		}
	}
	for lba, data := range want {
		got, err := a.ReadSync(lba, 1)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("lba %d after death+rebuild: %v", lba, err)
		}
	}
	// Full tolerance restored: any single member may fail.
	for dev := 0; dev < 4; dev++ {
		if err := a.SetDeviceFailed(dev, true); err != nil {
			t.Fatal(err)
		}
		for lba, data := range want {
			got, err := a.ReadSync(lba, 1)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("dev %d down, lba %d: %v", dev, lba, err)
			}
		}
		a.SetDeviceFailed(dev, false)
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	// Same seed, same spec: the faulty run reproduces bit-identically.
	run := func() (uint64, uint64, WriteAmp, []byte) {
		a, err := New(Options{StoreData: true, Seed: 53, AutoReplace: true,
			Faults: &FaultSpec{Rules: []FaultRule{
				TransientErrors(-1, FaultAnyOp, 0.01),
				KillDevice(1, 3_000_000),
			}}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			if err := a.WriteSync(int64(i%64), 1, fpat(byte(i), 4096)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		a.Run()
		sum := make([]byte, 0, 64*4096)
		for lba := int64(0); lba < 64; lba++ {
			got, err := a.ReadSync(lba, 1)
			if err != nil {
				t.Fatalf("read %d: %v", lba, err)
			}
			sum = append(sum, got...)
		}
		var faults uint64
		for _, q := range a.p.Queues() {
			faults += q.Injector().Injected()
		}
		return a.Reconstructions(), faults, a.WriteAmp(), sum
	}
	r1, f1, wa1, d1 := run()
	r2, f2, wa2, d2 := run()
	if r1 != r2 || f1 != f2 || wa1 != wa2 || !bytes.Equal(d1, d2) {
		t.Fatalf("faulty replay diverged: recon %d/%d faults %d/%d", r1, r2, f1, f2)
	}
	if f1 == 0 {
		t.Fatal("no faults injected — determinism check degenerate")
	}
}
