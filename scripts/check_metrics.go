//go:build ignore

// Command check_metrics gates CI on the ops endpoint's output:
//
//	go run scripts/check_metrics.go -prom metrics.txt
//	go run scripts/check_metrics.go -series a.json -series b.json
//
// -prom validates a saved /v1/metrics body against the Prometheus text
// exposition format (version 0.0.4): every non-comment line must be a
// well-formed sample, every family must carry a # TYPE declaration before
// its first sample, and the required biza_* families must be present.
//
// -series (repeatable) parses saved /v1/series bodies; every series must be
// well-formed (named, positive cadence, finite points), and when two or
// more dumps are given they must be identical — the endpoint republishes
// simulation-derived data, so runs differing only in execution layout
// must serve byte-equal series.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"

	"biza/internal/metrics"
)

type seriesList []string

func (s *seriesList) String() string     { return strings.Join(*s, ",") }
func (s *seriesList) Set(v string) error { *s = append(*s, v); return nil }

var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? ` +
		`(NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)( [0-9]+)?$`)

func main() {
	var promPath string
	var seriesPaths seriesList
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-prom":
			i++
			if i == len(args) {
				fail("-prom needs a file argument")
			}
			promPath = args[i]
		case "-series":
			i++
			if i == len(args) {
				fail("-series needs a file argument")
			}
			seriesPaths.Set(args[i])
		default:
			fail("usage: check_metrics [-prom metrics.txt] [-series dump.json ...]")
		}
	}
	if promPath == "" && len(seriesPaths) == 0 {
		fail("usage: check_metrics [-prom metrics.txt] [-series dump.json ...]")
	}
	if promPath != "" {
		checkProm(promPath)
	}
	if len(seriesPaths) > 0 {
		checkSeries(seriesPaths)
	}
}

func checkProm(path string) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	typed := map[string]bool{}
	samples := 0
	for n, line := range strings.Split(strings.TrimSuffix(string(buf), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				fail("%s:%d: malformed TYPE line %q", path, n+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				fail("%s:%d: unknown metric type %q", path, n+1, f[3])
			}
			typed[f[2]] = true
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "#"):
		case line == "":
			fail("%s:%d: blank line in exposition body", path, n+1)
		default:
			if !sampleLine.MatchString(line) {
				fail("%s:%d: malformed sample line %q", path, n+1, line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			if !typed[name] {
				fail("%s:%d: sample %q has no preceding # TYPE", path, n+1, name)
			}
			samples++
		}
	}
	for _, family := range []string{"biza_sweep_done", "biza_points_done", "biza_virtual_seconds_total"} {
		if !typed[family] {
			fail("%s: required family %s missing", path, family)
		}
	}
	if samples == 0 {
		fail("%s: no sample lines", path)
	}
	fmt.Printf("prom ok: %s, %d families, %d samples\n", path, len(typed), samples)
}

func checkSeries(paths []string) {
	var ref []metrics.SeriesDump
	points := 0
	for i, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		var dump []metrics.SeriesDump
		if err := json.Unmarshal(buf, &dump); err != nil {
			fail("%s: malformed JSON: %v", path, err)
		}
		if len(dump) == 0 {
			fail("%s: no series in dump", path)
		}
		for _, sd := range dump {
			if sd.Name == "" || sd.IntervalNs <= 0 {
				fail("%s: malformed series %+v", path, sd)
			}
			for _, p := range sd.Points {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					fail("%s: series %s/%s has a non-finite point", path, sd.Trace, sd.Name)
				}
			}
			if i == 0 {
				points += len(sd.Points)
			}
		}
		if i == 0 {
			ref = dump
			continue
		}
		if len(dump) != len(ref) {
			fail("%s: %d series, %s has %d", path, len(dump), paths[0], len(ref))
		}
		for j := range ref {
			if !reflect.DeepEqual(ref[j], dump[j]) {
				fail("%s: series %d (%s/%s) differs from %s",
					path, j, dump[j].Trace, dump[j].Name, paths[0])
			}
		}
	}
	fmt.Printf("series ok: %d dump(s), %d series, %d points identical\n",
		len(paths), len(ref), points)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "check_metrics: "+format+"\n", args...)
	os.Exit(1)
}
