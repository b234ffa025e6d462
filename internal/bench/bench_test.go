package bench

import (
	"strconv"
	"strings"
	"testing"
)

// parse extracts a float cell, tolerating the "a(b+c)" composite format.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	if i := strings.IndexByte(cell, '('); i > 0 {
		cell = cell[:i]
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// testRun returns the run context the Runner would hand experiment exp at
// the default seed, so direct calls reproduce registry results.
func testRun(exp string) *Run { return NewRun(DefaultSeed, exp) }

func TestTable2MatchesPaper(t *testing.T) {
	tab := Table2Presets(QuickScale(), testRun("table2"))
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// ZN540 row: 1077 MB zones, 1024 KB ZRWA, 14 open, 14 MB total.
	r := tab.Rows[0]
	if r[1] != "1077" || r[2] != "1024" || r[3] != "14" || r[4] != "14.00" {
		t.Fatalf("ZN540 row = %v", r)
	}
}

func TestTable3Shape(t *testing.T) {
	tab := Experiments["table3"].Tables(QuickScale(), testRun("table3"))[0]
	single := parse(t, tab.Rows[0][1])
	same := parse(t, tab.Rows[1][1])
	diverse := parse(t, tab.Rows[2][1])
	if same > single*1.25 {
		t.Fatalf("same-channel pair scaled: single=%v same=%v", single, same)
	}
	if diverse < single*1.6 {
		t.Fatalf("diverse channels did not scale: single=%v diverse=%v", single, diverse)
	}
	// Tail latency on the shared channel must blow up vs single.
	p9999Single := parse(t, tab.Rows[0][4])
	p9999Same := parse(t, tab.Rows[1][4])
	if p9999Same < p9999Single*1.5 {
		t.Fatalf("same-channel tail %v not above single %v", p9999Same, p9999Single)
	}
}

func TestFig5Shape(t *testing.T) {
	tab := Experiments["fig5"].Tables(QuickScale(), testRun("fig5"))[0]
	for _, r := range tab.Rows {
		d1, d32 := parse(t, r[1]), parse(t, r[2])
		if d1 >= d32 {
			t.Fatalf("size %s: depth-1 %v >= depth-32 %v", r[0], d1, d32)
		}
		retained := d1 / d32
		if retained > 0.7 {
			t.Fatalf("size %s: depth-1 retains %.2f, want well below 1", r[0], retained)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tabs := Experiments["fig10"].Tables(QuickScale(), testRun("fig10"))
	tput := tabs[0]
	// Row order: BIZA, dmzap+RAIZN, mdraid+dmzap, mdraid+ConvSSD, RAIZN.
	col := 2 // seq64K
	biza := parse(t, tput.Rows[0][col])
	dr := parse(t, tput.Rows[1][col])
	md := parse(t, tput.Rows[2][col])
	if biza <= dr || biza <= md {
		t.Fatalf("BIZA %v not above dmzap+RAIZN %v and mdraid+dmzap %v", biza, dr, md)
	}
	// RAIZN row has dashes in random columns.
	raizn := tput.Rows[4]
	if raizn[4] != "-" {
		t.Fatalf("RAIZN random cell = %q, want -", raizn[4])
	}
}

func TestFig14Shape(t *testing.T) {
	s := QuickScale()
	s.TraceOps = 8000
	tab := Experiments["fig14"].Tables(s, testRun("fig14"))[0]
	// On casa (hot workload) BIZA must beat BIZAw/oSelector and the
	// dmzap+RAIZN adapter, and land between ideal and nocache. (The
	// mdraid comparison is scale-sensitive — its volatile stripe cache
	// absorbs the whole quick-scale trace in one flush cycle — and is
	// asserted only in the default-scale EXPERIMENTS.md run.)
	r := tab.Rows[0]
	biza := parse(t, r[1])
	noSel := parse(t, r[2])
	dzr := parse(t, r[3])
	nocache := parse(t, r[5])
	ideal := parse(t, r[6])
	if biza > noSel {
		t.Fatalf("casa: BIZA %v worse than w/oSelector %v", biza, noSel)
	}
	if biza >= dzr {
		t.Fatalf("casa: BIZA %v not below dmzap+RAIZN %v", biza, dzr)
	}
	if biza < ideal*0.95 || biza > nocache*1.3 {
		t.Fatalf("casa: BIZA %v outside [ideal %v, nocache %v]", biza, ideal, nocache)
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"table2", "table3", "table6", "fig4", "fig5", "fig10",
		"fig11", "fig12", "fig14", "fig15", "fig16", "fig17"}
	for _, id := range want {
		if _, ok := Experiments[id]; !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	ids := IDs()
	if len(ids) < len(want) {
		t.Fatalf("IDs() returned %d entries", len(ids))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tab.Add("1", "2")
	out := tab.String()
	if !strings.Contains(out, "x: t") || !strings.Contains(out, "bb") {
		t.Fatalf("render: %q", out)
	}
}

func TestDetectAblationShape(t *testing.T) {
	s := QuickScale()
	s.TraceOps = 3000
	tab := Experiments["detect"].Tables(s, testRun("detect"))[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Avoidance must reduce user-write collisions on moderately aged
	// devices (the 0.25 and 0.50 rows).
	for _, i := range []int{1, 2} {
		avoid := parse(t, tab.Rows[i][5])
		noAvoid := parse(t, tab.Rows[i][6])
		if avoid >= noAvoid {
			t.Fatalf("row %s: avoidance collisions %v >= no-avoidance %v",
				tab.Rows[i][0], avoid, noAvoid)
		}
	}
}
