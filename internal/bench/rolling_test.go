package bench

import "testing"

// TestRollingSLO pins the experiment's acceptance claim: a paced rolling
// replacement holds the foreground p99 inside the availability budget
// while the unpaced rebuild violates it, and the pacing's cost is a
// longer replacement window.
func TestRollingSLO(t *testing.T) {
	c := checkClaims(t, "rolling", runExperiment(t, "rolling", QuickScale(), false).Results[0].Tables)
	for point, want := range map[string]string{"unpaced": "violated", "paced": "ok", "slow": "ok"} {
		if got := c.text("rolling-slo", point, "verdict"); got != want {
			c.must(t)
			t.Errorf("%s verdict = %q, want %s:\n%s", point, got, want, c.table("rolling-slo"))
		}
	}

	// Every phase of every point saw foreground traffic.
	main := c.table("rolling")
	c.must(t)
	if got := len(main.Rows); got != 9 {
		t.Fatalf("rolling table has %d rows, want 9 (3 points x 3 phases)", got)
	}
	for _, row := range main.Rows {
		if row[2] == "0" {
			t.Errorf("%s/%s completed zero ops: %v", row[0], row[1], row)
		}
	}
}
