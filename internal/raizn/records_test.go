package raizn

// Gates on the request records (writeReq, readReq and its run slots): what
// panics and what comes home. Every RAIZN request issues at least one
// member command and the driver queue never answers inside the submitting
// call, so the two degenerate request shapes (no part; every part done
// inside the issuing loop) cannot occur here.

import (
	"testing"

	"biza/internal/zns"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}

func TestRecordDiscipline(t *testing.T) {
	_, a, _ := newArray(t, Config{})
	w := a.getWrite()
	a.putWrite(w)
	mustPanic(t, "write record put twice", func() { a.putWrite(w) })
	mustPanic(t, "write record completed after put", func() { w.onPart(zns.WriteResult{}) })

	rd := a.getRead()
	rd.runs = append(rd.runs, &readRun{rd: rd})
	a.putRead(rd)
	mustPanic(t, "read record put twice", func() { a.putRead(rd) })
	mustPanic(t, "read run completed after put", func() { rd.runs[0].complete(zns.ReadResult{}) })

	w = a.getWrite()
	w.f.Arm(w.onAll)
	w.f.Add(1)
	w.f.Seal()
	w.onPart(zns.WriteResult{}) // completes the request and puts w back
	mustPanic(t, "part completed twice", func() { w.onPart(zns.WriteResult{}) })
}

// TestRecordsComeHome fills two logical zones with writes of every
// alignment (rows that complete inside a request, across requests, and the
// journal zone's rotation among them), reads them back in odd-sized pieces,
// some of it for nobody, resets one, and checks the free lists.
func TestRecordsComeHome(t *testing.T) {
	eng, a, _ := newArray(t, Config{})
	writes, reads := 0, 0
	for z := 0; z < 2; z++ {
		for lba, n := int64(0), 1; lba+int64(n) <= a.ZoneBlocks(); lba, n = lba+int64(n), n%7+1 {
			done := func(r zns.WriteResult) {
				if r.Err != nil {
					t.Errorf("write at %d: %v", lba, r.Err)
				}
				writes++
			}
			if n == 5 {
				done = nil
			}
			a.Write(z, lba, n, nil, zns.TagUserData, done)
			if lba%64 < 8 {
				eng.Run()
			}
		}
	}
	eng.Run()
	for lba := int64(0); lba+11 <= a.wp[1]; lba += 11 {
		a.Read(1, lba, 11, func(r zns.ReadResult) {
			if r.Err != nil {
				t.Errorf("read at %d: %v", lba, r.Err)
			}
			reads++
		})
		a.Read(1, lba, 3, nil)
	}
	a.Reset(0, nil)
	eng.Run()
	if writes == 0 || reads == 0 {
		t.Fatalf("%d writes and %d reads completed", writes, reads)
	}
	if a.made.write != len(a.writeFree) || a.made.read != len(a.readFree) {
		t.Fatalf("records made %+v, on the free lists %d writes and %d reads", a.made, len(a.writeFree), len(a.readFree))
	}
}
