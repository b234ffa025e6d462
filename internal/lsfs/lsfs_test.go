package lsfs

import (
	"testing"

	"biza/internal/ftl"
	"biza/internal/sim"
)

func newFS(t *testing.T) (*sim.Engine, *FS, *ftl.Device) {
	t.Helper()
	eng := sim.NewEngine()
	fc := ftl.TestConfig()
	fc.FlashBlocks = 256 // 4096 pages = 16 MiB raw
	fc.GCLowWater = 8
	fc.GCHighWater = 16
	fc.StoreData = false
	dev, err := ftl.New(eng, fc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MetaBlocks = 256
	cfg.SegmentBlocks = 128
	fs, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs, dev
}

func wf(eng *sim.Engine, fs *FS, id int, fb int64, n int) error {
	var res error
	ok := false
	fs.WriteFile(id, fb, n, func(err error) { res = err; ok = true })
	eng.Run()
	if !ok {
		panic("lsfs write hung")
	}
	return res
}

func rf(eng *sim.Engine, fs *FS, id int, fb int64, n int) error {
	var res error
	ok := false
	fs.ReadFile(id, fb, n, func(err error) { res = err; ok = true })
	eng.Run()
	if !ok {
		panic("lsfs read hung")
	}
	return res
}

func TestCreateLookup(t *testing.T) {
	_, fs, _ := newFS(t)
	id, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a"); err != ErrExists {
		t.Fatal("duplicate create accepted")
	}
	if f := fs.files[id]; f == nil || f.name != "a" || len(fs.files) != 1 {
		t.Fatalf("files after create: %v", fs.files)
	}
}

func TestWriteReadGrowsFile(t *testing.T) {
	eng, fs, _ := newFS(t)
	id, _ := fs.Create("f")
	if err := wf(eng, fs, id, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := wf(eng, fs, id, 8, 8); err != nil {
		t.Fatal(err)
	}
	size, _ := fs.SizeBlocks(id)
	if size != 16 {
		t.Fatalf("size = %d", size)
	}
	if err := rf(eng, fs, id, 0, 16); err != nil {
		t.Fatal(err)
	}
}

func TestMetadataWritesIssued(t *testing.T) {
	eng, fs, _ := newFS(t)
	id, _ := fs.Create("f")
	wf(eng, fs, id, 0, 32)
	meta := fs.metaWrites
	if meta == 0 {
		t.Fatal("no metadata writes")
	}
}

func TestDeleteInvalidates(t *testing.T) {
	eng, fs, _ := newFS(t)
	id, _ := fs.Create("f")
	wf(eng, fs, id, 0, 16)
	if err := fs.Delete(id); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := rf(eng, fs, id, 0, 1); err != ErrNotFound {
		t.Fatalf("read of deleted file: %v", err)
	}
}

func TestSegmentCleaningUnderChurn(t *testing.T) {
	eng, fs, _ := newFS(t)
	id, _ := fs.Create("hot")
	// Overwrite the same small region until segments recycle.
	for round := 0; round < 60; round++ {
		if err := wf(eng, fs, id, 0, 64); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	eng.Run()
	cleans := fs.cleanRuns
	if cleans == 0 {
		t.Fatal("segment cleaning never ran")
	}
	// File still readable.
	if err := rf(eng, fs, id, 0, 64); err != nil {
		t.Fatal(err)
	}
}

func TestPersonalitiesRun(t *testing.T) {
	for _, p := range Personalities {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			eng, fs, _ := newFS(t)
			// Shrink to fit the tiny test device.
			p.Files = 2
			p.FileBlocks = 64
			res, err := p.Run(eng, fs, 4, 200, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no ops completed")
			}
			if res.Errors > res.Ops/10 {
				t.Fatalf("errors = %d of %d", res.Errors, res.Ops)
			}
			if res.OpsPerSec() <= 0 {
				t.Fatal("no rate")
			}
		})
	}
}

func TestPersonalityByName(t *testing.T) {
	if PersonalityByName("oltp") == nil || PersonalityByName("nope") != nil {
		t.Fatal("personality lookup broken")
	}
}

func TestFsckCleanAfterChurn(t *testing.T) {
	eng, fs, _ := newFS(t)
	a, _ := fs.Create("a")
	b, _ := fs.Create("b")
	for round := 0; round < 30; round++ {
		wf(eng, fs, a, int64(round%8)*8, 8)
		wf(eng, fs, b, 0, 16)
	}
	fs.Delete(b)
	eng.Run()
	rep := fs.Fsck()
	if len(rep.Errors) > 0 {
		t.Fatalf("fsck errors: %v", rep.Errors[0])
	}
	if rep.Files != 1 || rep.LiveBlocks == 0 {
		t.Fatalf("fsck report %+v", rep)
	}
}
