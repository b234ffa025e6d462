package biza

import (
	"bytes"
	"testing"
)

func TestNewDefaultsToBIZA(t *testing.T) {
	a, err := New(Options{StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind() != BIZA {
		t.Fatalf("kind = %v", a.Kind())
	}
	if a.p.Dev.BlockSize() != 4096 || a.Blocks() <= 0 {
		t.Fatalf("geometry %d/%d", a.p.Dev.BlockSize(), a.Blocks())
	}
}

func TestSyncRoundTrip(t *testing.T) {
	a, err := New(Options{StoreData: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8*4096)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := a.WriteSync(100, 8, payload); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadSync(100, 8)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: err=%v", err)
	}
}

func TestAllKindsConstruct(t *testing.T) {
	for _, k := range []Kind{BIZA, BIZANoSelector, BIZANoAvoid, DmzapRAIZN, MdraidDmzap, MdraidConvSSD, RAIZN} {
		a, err := New(Options{Kind: k, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := a.WriteSync(0, 4, nil); err != nil {
			t.Fatalf("%v write: %v", k, err)
		}
	}
}

func TestWriteAmpVisible(t *testing.T) {
	a, err := New(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a.WriteSync(int64(i%32), 1, nil)
	}
	a.Run()
	wa := a.WriteAmp()
	if wa.UserBytes == 0 {
		t.Fatal("no user bytes accounted")
	}
	if a.AbsorbedBytes() == 0 {
		t.Fatal("hot overwrites not absorbed in ZRWA")
	}
}

func TestDegradedMode(t *testing.T) {
	a, err := New(Options{StoreData: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 12*4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	a.WriteSync(0, 12, payload)
	if err := a.SetDeviceFailed(1, true); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadSync(0, 12)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("degraded read: %v", err)
	}
}

func TestFSAndKVOnArray(t *testing.T) {
	a, err := New(Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := a.NewFS()
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Create("hello")
	if err != nil {
		t.Fatal(err)
	}
	werr := ErrIncomplete
	fs.WriteFile(id, 0, 4, func(e error) { werr = e })
	a.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	db, err := a.OpenKV(fs)
	if err != nil {
		t.Fatal(err)
	}
	perr := ErrIncomplete
	db.Put("k", []byte("v"), func(e error) { perr = e })
	a.Run()
	if perr != nil {
		t.Fatal(perr)
	}
	var key string
	var got []byte
	db.Seek("k", func(k string, v []byte, e error) { key, got = k, v })
	a.Run()
	if key != "k" || string(got) != "v" {
		t.Fatalf("kv seek = %q %q", key, got)
	}
}

func TestReplaceDevice(t *testing.T) {
	a, err := New(Options{StoreData: true, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 12*4096)
	for i := range payload {
		payload[i] = byte(i * 5)
	}
	a.WriteSync(0, 12, payload)
	if err := a.ReplaceDevicePaced(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadSync(0, 12)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-rebuild read: %v", err)
	}
	// Redundancy restored.
	a.SetDeviceFailed(0, true)
	got, err = a.ReadSync(0, 12)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-rebuild degraded read: %v", err)
	}
}

// TestHealthNilForNonBIZAKinds pins the documented Health contract:
// baseline platforms have no member-state tracking and report nil.
func TestHealthNilForNonBIZAKinds(t *testing.T) {
	for _, k := range []Kind{RAIZN, MdraidConvSSD, DmzapRAIZN} {
		a, err := New(Options{Kind: k, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if h := a.Health(); h != nil {
			t.Fatalf("%v: Health() = %v, want nil", k, h)
		}
	}
	a, err := New(Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h := a.Health(); len(h) == 0 {
		t.Fatal("BIZA kind: Health() empty, want member states")
	}
}
