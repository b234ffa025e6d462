package biza_test

import (
	"errors"
	"testing"

	"biza"
	"biza/internal/storerr"
)

// TestAdminFacade drives every job kind through the public surface and
// checks the array's four mutating methods leave job records behind —
// they are documented thin wrappers over the control plane.
func TestAdminFacade(t *testing.T) {
	arr, err := biza.New(biza.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := arr.WriteSync(int64(i), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	ad := arr.Admin()
	if err := ad.Scrub(4096, 0); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if err := ad.ReplaceDevicePaced(1, 4, 100_000); err != nil {
		t.Fatalf("paced replace: %v", err)
	}
	if err := ad.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := ad.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := ad.SetDeviceFailed(0, true); err != nil {
		t.Fatal(err)
	}
	if err := ad.SetDeviceFailed(0, false); err != nil {
		t.Fatal(err)
	}
	if err := ad.ReplaceDevicePaced(2, 0, 0); err != nil {
		t.Fatal(err)
	}

	if err := ad.ReplaceDevicePaced(9, 0, 0); !errors.Is(err, storerr.ErrNotFound) {
		t.Fatalf("replace of member 9: err = %v, want ErrNotFound", err)
	}

	jobs := ad.Jobs()
	// scrub, replace, crash, recover, 2×set-failed, replace, failed
	// replace = 8 records.
	if len(jobs) != 8 {
		t.Fatalf("job records = %d, want 8", len(jobs))
	}
	for i, j := range jobs[:7] {
		if j.State != biza.JobDone {
			t.Fatalf("job %d = %+v, want done", i, j)
		}
	}
	if last := jobs[7]; last.State != biza.JobFailed {
		t.Fatalf("replace of member 9 = %+v, want failed", last)
	}
}

// TestAdminFacadeNonBIZA: job kinds that need a BIZA stack surface
// ErrNotSupported through the facade on baseline platforms.
func TestAdminFacadeNonBIZA(t *testing.T) {
	arr, err := biza.New(biza.Options{Kind: biza.RAIZN, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ad := arr.Admin()
	if err := ad.Crash(); !errors.Is(err, storerr.ErrNotSupported) {
		t.Fatalf("crash: err = %v, want ErrNotSupported", err)
	}
	if err := ad.SetDeviceFailed(0, true); !errors.Is(err, storerr.ErrNotSupported) {
		t.Fatalf("set-failed: err = %v, want ErrNotSupported", err)
	}
	if err := ad.ReplaceDevicePaced(0, 0, 0); !errors.Is(err, storerr.ErrNotSupported) {
		t.Fatalf("replace: err = %v, want ErrNotSupported", err)
	}
}
