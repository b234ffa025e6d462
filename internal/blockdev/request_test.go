package blockdev

import (
	"errors"
	"reflect"
	"testing"

	"biza/internal/sim"
)

func TestRunsCoalesce(t *testing.T) {
	type block struct {
		unit int
		off  int64
		at   int
	}
	tests := []struct {
		name   string
		blocks []block
		want   Runs
	}{
		{name: "consecutive in unit and request", blocks: []block{{0, 8, 0}, {0, 9, 1}, {0, 10, 2}},
			want: Runs{{Unit: 0, Off: 8, Blocks: 3, At: 0}}},
		{name: "unit changes", blocks: []block{{0, 8, 0}, {1, 9, 1}},
			want: Runs{{Unit: 0, Off: 8, Blocks: 1, At: 0}, {Unit: 1, Off: 9, Blocks: 1, At: 1}}},
		{name: "offset jumps", blocks: []block{{0, 8, 0}, {0, 12, 1}},
			want: Runs{{Unit: 0, Off: 8, Blocks: 1, At: 0}, {Unit: 0, Off: 12, Blocks: 1, At: 1}}},
		{name: "a hole in the request (an unmapped block) splits", blocks: []block{{0, 8, 0}, {0, 9, 2}},
			want: Runs{{Unit: 0, Off: 8, Blocks: 1, At: 0}, {Unit: 0, Off: 9, Blocks: 1, At: 2}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var got Runs
			for _, b := range tc.blocks {
				got.Add(b.unit, b.off, b.at)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("runs = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestPrologueAndEpilogue(t *testing.T) {
	eng := sim.NewEngine()
	var got []WriteResult
	done := func(r WriteResult) { got = append(got, r) }
	for _, bad := range []struct {
		lba int64
		n   int
	}{{-1, 1}, {0, 0}, {99, 2}, {100, 1}} {
		if CheckWrite(eng, bad.lba, bad.n, 100, done) {
			t.Fatalf("CheckWrite accepted lba %d n %d on 100 blocks", bad.lba, bad.n)
		}
	}
	if !CheckWrite(eng, 98, 2, 100, done) || len(got) != 0 {
		t.Fatalf("valid range refused, or a failure delivered inside the call (%d)", len(got))
	}
	eng.Run()
	if len(got) != 4 {
		t.Fatalf("%d failures delivered, want 4", len(got))
	}
	for _, r := range got {
		if !errors.Is(r.Err, ErrOutOfRange) || r.Latency != sim.Microsecond {
			t.Fatalf("failure = %+v, want ErrOutOfRange after 1µs", r)
		}
	}
	errA := errors.New("a")
	var rd ReadResult
	buf := []byte{1}
	fin := ReadDone(eng, buf, func(r ReadResult) { rd = r })
	eng.After(7, func() { fin(errA) })
	eng.Run()
	if rd.Err != errA || rd.Latency != 7 || &rd.Data[0] != &buf[0] {
		t.Fatalf("epilogue delivered %+v, want errA, 7 ns and the caller's buffer", rd)
	}
	WriteDone(eng, nil)(nil) // a nil done is fine
}
