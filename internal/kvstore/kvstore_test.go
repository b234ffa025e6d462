package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"biza/internal/ftl"
	"biza/internal/lsfs"
	"biza/internal/sim"
)

func newDB(t *testing.T) (*sim.Engine, *DB) {
	t.Helper()
	eng := sim.NewEngine()
	fc := ftl.TestConfig()
	fc.FlashBlocks = 512
	fc.GCLowWater = 8
	fc.GCHighWater = 16
	fc.StoreData = false
	dev, err := ftl.New(eng, fc)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := lsfs.DefaultConfig()
	fcfg.MetaBlocks = 256
	fcfg.SegmentBlocks = 128
	fs, err := lsfs.New(eng, dev, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MemtableBytes = 32 << 10
	db, err := Open(eng, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, db
}

func put(eng *sim.Engine, db *DB, k string, v []byte) error {
	var res error
	ok := false
	db.Put(k, v, func(err error) { res = err; ok = true })
	eng.Run()
	if !ok {
		panic("put hung")
	}
	return res
}

// seek drives a Seek to completion: the first key at or after k, and its
// value. A stored key seeks to itself.
func seek(eng *sim.Engine, db *DB, k string) (string, []byte, error) {
	var key string
	var v []byte
	var res error
	ok := false
	db.Seek(k, func(gk string, val []byte, err error) { key, v, res = gk, val, err; ok = true })
	eng.Run()
	if !ok {
		panic("seek hung")
	}
	return key, v, res
}

func TestPutGetRoundTrip(t *testing.T) {
	eng, db := newDB(t)
	if err := put(eng, db, "alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	k, v, err := seek(eng, db, "alpha")
	if err != nil || k != "alpha" || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("seek: %q %q %v", k, v, err)
	}
	if _, _, err := seek(eng, db, "missing"); err != ErrNotFound {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	eng, db := newDB(t)
	put(eng, db, "k", []byte("v1"))
	put(eng, db, "k", []byte("v2"))
	k, v, _ := seek(eng, db, "k")
	if k != "k" || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("got %q %q", k, v)
	}
}

func TestFlushAndReadFromSSTable(t *testing.T) {
	eng, db := newDB(t)
	// Exceed the 32 KiB memtable to force flushes.
	for i := 0; i < 100; i++ {
		put(eng, db, fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte{byte(i)}, 512))
	}
	_, flushes, _ := db.Stats()
	if flushes == 0 {
		t.Fatal("no flush despite memtable overflow")
	}
	// All keys still readable (from memtable or tables).
	for i := 0; i < 100; i += 7 {
		want := fmt.Sprintf("key-%03d", i)
		k, v, err := seek(eng, db, want)
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if k != want || len(v) != 512 || v[0] != byte(i) {
			t.Fatalf("key %d value wrong", i)
		}
	}
}

func TestCompactionPreservesData(t *testing.T) {
	eng, db := newDB(t)
	for i := 0; i < 700; i++ {
		put(eng, db, fmt.Sprintf("key-%04d", i%150), bytes.Repeat([]byte{byte(i)}, 400))
	}
	_, _, compactions := db.Stats()
	if compactions == 0 {
		t.Fatal("compaction never ran")
	}
	flushed, compacted := db.WriteAmpBytes()
	if flushed == 0 || compacted == 0 {
		t.Fatal("write volumes not accounted")
	}
	// Latest value of a sampled key survives compaction.
	k, v, err := seek(eng, db, "key-0010")
	if err != nil {
		t.Fatal(err)
	}
	if k != "key-0010" || len(v) != 400 || v[0] != byte(610%256) { // i = 610 wrote it last
		t.Fatalf("seek returns %q with value len %d", k, len(v))
	}
}

func TestSeekFindsSuccessor(t *testing.T) {
	eng, db := newDB(t)
	for _, k := range []string{"b", "d", "f"} {
		put(eng, db, k, []byte("v-"+k))
	}
	var gotK string
	ok := false
	db.Seek("c", func(k string, v []byte, err error) {
		if err != nil {
			t.Errorf("seek: %v", err)
		}
		gotK = k
		ok = true
	})
	eng.Run()
	if !ok || gotK != "d" {
		t.Fatalf("seek(c) = %q", gotK)
	}
	db.Seek("z", func(_ string, _ []byte, err error) {
		if err != ErrNotFound {
			t.Errorf("seek past end: %v", err)
		}
		ok = true
	})
	eng.Run()
}

func TestDBBenchWorkloads(t *testing.T) {
	for _, name := range []string{"fillseq", "fillrandom", "fillseekseq"} {
		t.Run(name, func(t *testing.T) {
			eng, db := newDB(t)
			spec, err := DefaultBench(name, 150)
			if err != nil {
				t.Fatal(err)
			}
			spec.ValueB = 256 // fit the tiny test device
			res := RunBench(eng, db, spec)
			if res.Ops == 0 {
				t.Fatal("no ops")
			}
			if res.Errors > 0 {
				t.Fatalf("%d errors", res.Errors)
			}
			if res.OpsPerSec() <= 0 {
				t.Fatal("no rate")
			}
		})
	}
	if _, err := DefaultBench("nope", 1); err == nil {
		t.Fatal("unknown bench accepted")
	}
}
