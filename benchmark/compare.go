package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

func loadSet(path string) []*result {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	var set []*result
	if err := json.Unmarshal(data, &set); err != nil {
		fatalf("%s: %v", path, err)
	}
	return set
}

// compareSets applies the choosing-metrics guide's section 8 to two sets
// of runs, A the parent and B the change (or a second set of the same
// commit): per workload and end-to-end metric the medians and quartiles of
// both, and a verdict.
//
//	unresolved  A's own quartile spread exceeds the metric's bound
//	worse       B's median is worse than A's by more than the bound
//	better      B wins at least nine tenths of the runs paired by seed and
//	            the medians differ by more than A's quartile spread
//	no worse    otherwise
//
// It reports false when any verdict is worse.
func compareSets(w io.Writer, man *manifest, pathA, pathB string) bool {
	a, b := loadSet(pathA), loadSet(pathB)
	type key struct {
		workload string
		seed     uint64
	}
	bySeed := map[key]*result{}
	for _, r := range b {
		bySeed[key{r.Workload, r.Seed}] = r
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-19s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound", "verdict")
	for _, wl := range man.Workloads {
		var paired, sameDigest int
		for _, d := range man.EndToEnd {
			var xa, xb []float64
			var wins, losses int
			for _, ra := range a {
				if ra.Workload != wl.Name {
					continue
				}
				xa = append(xa, ra.Metrics[d.Name].Value)
				rb := bySeed[key{ra.Workload, ra.Seed}]
				if rb == nil {
					continue
				}
				if d.Name == man.EndToEnd[0].Name {
					paired++
					if ra.SimDigest == rb.SimDigest {
						sameDigest++
					}
				}
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				if d.Better == "higher" {
					va, vb = -va, -vb
				}
				if vb < va {
					wins++
				} else if vb > va {
					losses++
				}
			}
			for _, rb := range b {
				if rb.Workload == wl.Name {
					xb = append(xb, rb.Metrics[d.Name].Value)
				}
			}
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			spreadA, spreadB := ratio(a3-a1, ma), ratio(b3-b1, mb)
			worsening := ratio(mb-ma, ma) // share of A's median B is worse by
			if d.Better == "higher" {
				worsening = -worsening
			}
			verdict := "no worse"
			switch {
			case spreadA > d.Bound:
				verdict = "unresolved"
			case worsening > d.Bound:
				verdict = "worse"
				ok = false
			case wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses) && mb != ma &&
				math.Abs(mb-ma) > a3-a1:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-13s %-19s %14.4f %7.2f%% %14.4f %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl.Name, d.Name, ma, 100*spreadA, mb, 100*spreadB, 100*ratio(mb-ma, ma), 100*d.Bound, verdict)
		}
		if paired > 0 {
			fmt.Fprintf(w, "%-13s sim_digest identical in %d of %d runs paired by seed\n", wl.Name, sameDigest, paired)
		}
	}
	return ok
}
