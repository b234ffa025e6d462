package bench

import (
	"math"
	"strings"
	"testing"
)

// testRun returns the run context the Runner would hand experiment exp at
// the default seed, so direct calls reproduce registry results.
func testRun(exp string) *Run { return &Run{base: DefaultSeed, exp: exp} }

// checkClaims asserts the band of every ledger row that reads exp and
// returns the tables' cell reader for the test's own checks.
func checkClaims(t *testing.T, exp string, tables []*Table) *cells {
	t.Helper()
	rows := 0
	for _, cl := range ledger {
		if cl.exp != exp {
			continue
		}
		rows++
		m, err := cl.eval(tables)
		switch {
		case err != nil:
			t.Errorf("%s: %v", cl.name, err)
		case !cl.inBand(m):
			t.Errorf("%s = %.4g, want [%g, %g]:\n%s", cl.name, m, cl.wantLo, cl.wantHi, renderTables(tables))
		default:
			t.Logf("%s = %.4g", cl.name, m)
		}
	}
	if rows == 0 {
		t.Fatalf("no ledger row reads %s", exp)
	}
	return &cells{tables: tables}
}

// must fails the test on the first missing cell read so far.
func (c *cells) must(t *testing.T) {
	t.Helper()
	if c.err != nil {
		t.Fatal(c.err)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	c := checkClaims(t, "table2", Experiments["table2"].Tables(QuickScale(), testRun("table2")))
	tab := c.table("table2")
	c.must(t)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTable3Shape(t *testing.T) {
	checkClaims(t, "table3", Experiments["table3"].Tables(QuickScale(), testRun("table3")))
}

func TestFig5Shape(t *testing.T) {
	checkClaims(t, "fig5", Experiments["fig5"].Tables(QuickScale(), testRun("fig5")))
}

func TestFig10Shape(t *testing.T) {
	c := checkClaims(t, "fig10", Experiments["fig10"].Tables(QuickScale(), testRun("fig10")))
	// RAIZN has no random-write cells.
	if got := c.text("fig10a", "RAIZN", "rand4K"); got != "-" {
		c.must(t)
		t.Fatalf("RAIZN random cell = %q, want -", got)
	}
}

// TestFig14Shape runs all ten traces. Its casa rows are the scale-proof
// ones; mdraid's volatile stripe cache absorbs a whole quick-scale trace in
// one flush cycle, so the rows against mdraid+dmzap hold only loose bands.
func TestFig14Shape(t *testing.T) {
	s := QuickScale()
	s.TraceOps = 8000
	checkClaims(t, "fig14", Experiments["fig14"].Tables(s, testRun("fig14")))
}

// TestExperimentRegistry holds IDs() equal to the registry, and every id to
// a ledger row: an experiment left out of IDs() is never run by -exp all
// nor rendered, and one without a row is printed but checked by nothing.
func TestExperimentRegistry(t *testing.T) {
	ids := IDs()
	listed := map[string]bool{}
	for _, id := range ids {
		if _, ok := Experiments[id]; !ok || listed[id] {
			t.Errorf("IDs() lists %s unregistered or twice", id)
		}
		listed[id] = true
	}
	for id := range Experiments {
		if !listed[id] {
			t.Errorf("experiment %s is registered but not in IDs()", id)
		}
	}
	claimed := map[string]bool{}
	for _, cl := range ledger {
		claimed[cl.exp] = true
	}
	for _, id := range ids {
		if !claimed[id] {
			t.Errorf("experiment %s has no ledger row", id)
		}
	}
}

// TestClaimsLedger checks the rows themselves (unique names, a registered
// experiment, a band, a measure that reports a missing cell) and the
// verdict rule.
func TestClaimsLedger(t *testing.T) {
	seen := map[string]bool{}
	for _, cl := range ledger {
		if _, err := cl.eval(nil); err == nil || seen[cl.name] || Experiments[cl.exp] == nil || !(cl.wantLo <= cl.wantHi) {
			t.Errorf("%s: reads no cell, is a duplicate, reads unregistered %q or has an empty band", cl.name, cl.exp)
		}
		seen[cl.name] = true
	}
	ratio := claim{paper: 2, null: 1, tol: 0.1}
	for m, want := range map[float64]string{0.5: "inverts", 2.05: "holds", 3: "grows", 1.5: "shrinks", math.NaN(): "—"} {
		if got := ratio.verdict(m); got != want {
			t.Errorf("verdict(%v) = %s, want %s", m, got, want)
		}
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

// TestExtensionShape holds the rows of the experiments whose tables need no
// check beyond their ledger rows. table6 runs at the default trace length:
// a 4 000-op trace reuses too little to reach past 56 MB.
func TestExtensionShape(t *testing.T) {
	for _, id := range []string{"table6", "batching", "wear", "append", "avail", "future"} {
		t.Run(id, func(t *testing.T) {
			s := QuickScale()
			if id == "table6" {
				s.TraceOps = DefaultScale().TraceOps
			}
			checkClaims(t, id, Experiments[id].Tables(s, testRun(id)))
		})
	}
}

func TestDetectAblationShape(t *testing.T) {
	s := QuickScale()
	s.TraceOps = 3000
	c := checkClaims(t, "detect", Experiments["detect"].Tables(s, testRun("detect")))
	tab := c.table("detect")
	c.must(t)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}
