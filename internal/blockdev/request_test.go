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

func TestPrologue(t *testing.T) {
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
	var rd []ReadResult
	if CheckRead(eng, 100, 1, 100, func(r ReadResult) { rd = append(rd, r) }) || len(rd) != 0 {
		t.Fatal("CheckRead accepted lba 100 on 100 blocks, or failed it inside the call")
	}
	eng.Run()
	if len(rd) != 1 || !errors.Is(rd[0].Err, ErrOutOfRange) || rd[0].Latency != sim.Microsecond {
		t.Fatalf("read failures = %+v, want one ErrOutOfRange after 1µs", rd)
	}
	CheckWrite(eng, -1, 1, 100, nil) // a nil done is fine
}

// stuckDev completes every request with success a microsecond later, or,
// with hang set, never calls done, as a stack that lost a request would.
type stuckDev struct {
	eng  *sim.Engine
	hang bool
}

func (d *stuckDev) BlockSize() int  { return 4096 }
func (d *stuckDev) Blocks() int64   { return 100 }
func (d *stuckDev) Trim(int64, int) {}

func (d *stuckDev) Write(_ int64, _ int, _ []byte, done func(WriteResult)) {
	if !d.hang {
		sim.Deliver(d.eng, sim.Microsecond, done, WriteResult{Latency: sim.Microsecond})
	}
}

func (d *stuckDev) Read(_ int64, n int, done func(ReadResult)) {
	if !d.hang {
		sim.Deliver(d.eng, sim.Microsecond, done, ReadResult{Data: make([]byte, n*4096), Latency: sim.Microsecond})
	}
}

// TestSyncLoops: WriteSync and ReadSync return what the device completes
// with, and ErrIncomplete for a request the drained engine never completed.
func TestSyncLoops(t *testing.T) {
	eng := sim.NewEngine()
	d := &stuckDev{eng: eng}
	if r := WriteSync(eng, d, 0, 1, nil); r.Err != nil || r.Latency != sim.Microsecond {
		t.Fatalf("write = %+v, want success after 1µs", r)
	}
	if r := ReadSync(eng, d, 0, 2); r.Err != nil || len(r.Data) != 2*4096 {
		t.Fatalf("read = %v with %d bytes, want success with 8192", r.Err, len(r.Data))
	}
	d.hang = true
	if r := WriteSync(eng, d, 0, 1, nil); !errors.Is(r.Err, ErrIncomplete) {
		t.Fatalf("hung write = %v, want ErrIncomplete", r.Err)
	}
	if r := ReadSync(eng, d, 0, 1); !errors.Is(r.Err, ErrIncomplete) || r.Data != nil {
		t.Fatalf("hung read = %v with %d bytes, want ErrIncomplete and none", r.Err, len(r.Data))
	}
}
