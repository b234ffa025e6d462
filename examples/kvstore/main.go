// KV store: run db_bench-like fill workloads on an LSM store over a
// log-structured filesystem over BIZA — the paper's Fig. 13b stack — and
// print rates plus LSM-level write volumes.
package main

import (
	"fmt"
	"log"

	"biza"
	"biza/internal/kvstore"
)

func main() {
	for _, name := range []string{"fillseq", "fillrandom", "fillseekseq"} {
		arr, err := biza.New(biza.Options{Seed: 33})
		if err != nil {
			log.Fatal(err)
		}
		fs, err := arr.NewFS()
		if err != nil {
			log.Fatal(err)
		}
		db, err := arr.OpenKV(fs)
		if err != nil {
			log.Fatal(err)
		}
		spec, err := kvstore.DefaultBench(name, 3000)
		if err != nil {
			log.Fatal(err)
		}
		res := kvstore.RunBench(arr.Engine(), db, spec)
		_, flushes, compactions := db.Stats()
		flushed, compacted := db.WriteAmpBytes()
		fmt.Printf("%-12s %9.0f ops/s  errors=%d  flushes=%d compactions=%d  flushed=%dMB compacted=%dMB\n",
			name, res.OpsPerSec(), res.Errors, flushes, compactions,
			flushed>>20, compacted>>20)
		if res.Errors > 0 {
			log.Fatalf("%s: %d operations failed", name, res.Errors)
		}
	}
}
