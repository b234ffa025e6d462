package metrics

import (
	"math"
	"testing"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"equal", []float64{5, 5, 5, 5}, 1},
		{"monopoly", []float64{10, 0, 0, 0}, 0.25},
		{"empty", nil, 0},
		{"all-zero", []float64{0, 0}, 0},
		{"single", []float64{7}, 1},
		{"negative-clamped", []float64{5, -5, 5}, 2.0 / 3.0},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: JainIndex(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	// Two-tenant 3:1 split: (4)²/(2·10) = 0.8.
	if got := JainIndex([]float64{3, 1}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("3:1 split = %v, want 0.8", got)
	}
}
