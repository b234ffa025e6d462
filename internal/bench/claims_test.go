package bench

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// table3Report is a report holding only Table 3: bandwidth and latencies
// of the single-zone, same-channel and diverse-channel scenarios.
func table3Report(bw [3]float64, lat [2]float64) *Report {
	t := table3Header()
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	t.Add(single, f(bw[0]), f(lat[0]), "1", f(3*lat[0]))
	t.Add(same, f(bw[1]), f(lat[1]), "1", f(3*lat[1]))
	t.Add("3. two zones, diverse channels", f(bw[2]), f(lat[0]), "1", f(3*lat[0]))
	return &Report{Schema: ReportSchema, Results: []Result{{Experiment: "table3", Tables: []*Table{t}}}}
}

// TestCompareClaims: a move inside every row's tolerance passes and is
// printed; a changed verdict, a row leaving its band and a missing cell
// fail, each naming its row.
func TestCompareClaims(t *testing.T) {
	parent := table3Report([3]float64{1092, 1092, 2170}, [2]float64{10, 20})
	var out strings.Builder
	if err := CompareClaims(&out, parent, parent); err != nil || !strings.Contains(out.String(), "0 ledger rows moved") {
		t.Fatalf("a report against itself: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := CompareClaims(&out, parent, table3Report([3]float64{1100, 1100, 2186}, [2]float64{10, 20})); err != nil ||
		!strings.Contains(out.String(), "table3/single-zone-mbps") {
		t.Fatalf("a move within tolerance: %v\n%s", err, out.String())
	}
	for _, c := range []struct {
		name   string
		change *Report
		want   string
	}{
		{"verdict", table3Report([3]float64{1250, 1250, 2484}, [2]float64{10, 20}), "table3/single-zone-mbps: verdict holds became grows"},
		{"band", table3Report([3]float64{1092, 1092, 2170}, [2]float64{10, 26}), "table3/same-channel-lat-x: 2.6 left [1.5, 2.5]"},
		{"missing", &Report{Schema: ReportSchema, Results: []Result{{Experiment: "table3"}}}, "table3/single-zone-mbps: change: no table table3"},
	} {
		if err := CompareClaims(io.Discard, parent, c.change); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
