//go:build ignore

// Command compare_claims holds a change that moves simulated numbers to the
// claims ledger: it evaluates every row on two bizabench reports of the
// same sweep and seed, parent first, prints each row that moved, and exits
// non-zero if a row's verdict changed, a row left its band, or a value moved
// by more than its row's tolerance (bench.CompareClaims).
//
//	go run ./scripts/compare_claims.go parent.json change.json
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"biza/internal/bench"
)

func main() {
	if len(os.Args) != 3 {
		fail("usage: compare_claims <parent.json> <change.json>")
	}
	var reps [2]bench.Report
	for i, path := range os.Args[1:] {
		buf, err := os.ReadFile(path)
		if err != nil {
			fail("%v", err)
		}
		if err := json.Unmarshal(buf, &reps[i]); err != nil {
			fail("%s: %v", path, err)
		}
		if reps[i].Schema != bench.ReportSchema {
			fail("%s: want a %s report", path, bench.ReportSchema)
		}
	}
	if reps[0].Quick != reps[1].Quick || reps[0].Seed != reps[1].Seed {
		fail("the reports differ in scale or seed")
	}
	if err := bench.CompareClaims(os.Stdout, &reps[0], &reps[1]); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "compare_claims: "+format+"\n", args...)
	os.Exit(1)
}
