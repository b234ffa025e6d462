#!/usr/bin/env bash
# Measures which statements the repository's own runs reach (ROADMAP item
# 18's method). It builds bizabench, bizatrace, compare_claims, the
# benchmark and the five examples with coverage over every package, runs
# `bizabench -exp all -quick -seed 1` and compare_claims on its report
# against itself (so the claims ledger's evaluation counts), CI's traced
# run (`-exp fig10 -quick -series` with both trace exports) and `bizatrace
# explain`/`attr` on each export, each benchmark workload for 2 s with
# --trace 1, and each example, and merges the profiles. It prints `go tool covdata percent`, the share
# of statements that never ran and the number of functions at 0.0 %, and
# leaves `go tool covdata func` in OUT/func.txt. compare_claims is built
# from a file, so its lines name the checkout's absolute path; that prefix
# is cut from func.txt and profile.txt, and two checkouts of one commit
# give the same files. It reports; it gates nothing.
#
#	scripts/coverage.sh OUT
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:?usage: scripts/coverage.sh OUT}
rm -rf "$out"
mkdir -p "$out/bin" "$out/raw" "$out/merged"
out=$(cd "$out" && pwd)

build() { go build -cover -coverpkg=./... -o "$out/bin/$1" "$2"; }
build bizabench ./cmd/bizabench
build bizatrace ./cmd/bizatrace
build compare_claims ./scripts/compare_claims.go
build benchmark ./benchmark
for ex in examples/*/; do
	build "example-$(basename "$ex")" "./$ex"
done

export GOCOVERDIR="$out/raw"
"$out/bin/bizabench" -exp all -quick -seed 1 -json "$out/quick.json" >/dev/null 2>&1
"$out/bin/compare_claims" "$out/quick.json" "$out/quick.json" >/dev/null 2>&1
# The traces are about 100 MB each; they are removed once read.
"$out/bin/bizabench" -exp fig10 -quick -seed 1 -series \
	-trace "$out/fig10.json" -trace-jsonl "$out/fig10.jsonl" >/dev/null 2>&1
for f in "$out/fig10.json" "$out/fig10.jsonl"; do
	"$out/bin/bizatrace" explain -top 5 "$f" >/dev/null 2>&1
	"$out/bin/bizatrace" attr "$f" >/dev/null 2>&1
done
rm -f "$out/fig10.json" "$out/fig10.jsonl"
for w in seq-write hot-rmw tenant-mix baseline-mix fleet-1shard; do
	"$out/bin/benchmark" --workload "$w" --seed 1 --seconds 2 --trace 1 >/dev/null 2>&1
done
for ex in "$out"/bin/example-*; do
	"$ex" >/dev/null 2>&1
done
unset GOCOVERDIR

go tool covdata merge -i="$out/raw" -o="$out/merged"
go tool covdata percent -i="$out/merged"
go tool covdata func -i="$out/merged" | sed "s|^$PWD/||" >"$out/func.txt"
go tool covdata textfmt -i="$out/merged" -o="$out/profile.txt"
sed -i "s|^$PWD/||" "$out/profile.txt"
# profile.txt: "file:start,end statements count", one line per block.
awk 'NR > 1 { total += $2; if ($3 == 0) never += $2 }
	END { printf "never-run statements: %d of %d (%.1f %%)\n", never, total, 100 * never / total }' "$out/profile.txt"
awk '$NF == "0.0%" { n++ } END { printf "functions at 0.0 %%: %d\n", n }' "$out/func.txt"
