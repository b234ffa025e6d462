package bench

import (
	"strings"
	"testing"
)

// TestTenantsIsolation pins the experiment's acceptance claim: under
// aggressor saturation the interactive class's p99 degrades less than 2x
// from the idle baseline with QoS on, while disabling QoS lets the
// aggressor backlog blow it past that bound.
func TestTenantsIsolation(t *testing.T) {
	c := checkClaims(t, "tenants", runExperiment(t, "tenants", QuickScale(), true).Results[0].Tables)

	// The per-class table does real work: every class except the idle
	// baseline aggressor completes ops, and batch tenants hit the throttle.
	main := c.table("tenants")
	c.must(t)
	if got := len(main.Rows); got != 9 {
		t.Fatalf("tenants table has %d rows, want 9 (3 points x 3 classes)", got)
	}
	for _, row := range main.Rows {
		point, class, ops := row[0], row[1], row[3]
		if point == "baseline" && class == "aggressor" {
			if ops != "0" {
				t.Errorf("baseline aggressor ran: %v", row)
			}
			continue
		}
		if ops == "0" {
			t.Errorf("%s/%s completed zero ops: %v", point, class, row)
		}
		if class == "batch" && point != "noqos" && row[7] == "0" {
			t.Errorf("%s/%s: token bucket never bound (0 stalls): %v", point, class, row)
		}
	}
}

// TestTenantsProbesEmitted: the per-tenant observability probes flow into
// the platform traces when tracing is on.
func TestTenantsProbesEmitted(t *testing.T) {
	rep := runExperiment(t, "tenants", QuickScale(), true)
	var qd, stalls, bts bool
	for _, tr := range rep.Traces {
		for _, ps := range tr.ProbeStats() {
			switch {
			case strings.HasPrefix(ps.Name, "tenant_qd/"):
				qd = true
			case strings.HasPrefix(ps.Name, "tenant_stalls/"):
				stalls = true
			case strings.HasPrefix(ps.Name, "tenant_bytes/"):
				bts = true
			}
		}
	}
	if !qd || !stalls || !bts {
		t.Fatalf("missing tenant probes: qd=%v stalls=%v bytes=%v", qd, stalls, bts)
	}
}
