#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from a `bizabench -exp all` text dump.

Usage: gen_experiments_md.py /tmp/experiments_full.txt > EXPERIMENTS.md

The commentary blocks below record the paper-vs-measured comparison for
each artifact; the tables are pasted verbatim from the run output.
"""
import re
import sys

COMMENTARY = {
    "table2": """Paper: Table 2 lists ZRWA configurations of four commodity ZNS SSDs.
Measured: generated from the device presets; matches the paper column for
column (zone capacity, ZRWA per open zone, max open zones, total ZRWA).""",
    "table3": """Paper: single zone 1092 MB/s; two zones on one channel stay at 1092 MB/s
with 2x average and ~4x p99.99 latency; two zones on diverse channels reach
2170 MB/s at near-single-zone latency.
Measured: 1151 / 1160 / 2169 MB/s with the same latency ordering (~2x
average and ~1.8x tail on the shared channel; near-parity on diverse
channels). Shape match: no bandwidth from same-channel pairing, 2x from
diverse channels, tail inflation only on the shared channel.""",
    "fig4": """Paper: only ~17% of SYSTOR reuse distances fall within 14 MB (the ZN540's
total ZRWA), motivating the selector.
Measured: CDF(14MB) ~= 0.13 on the synthetic SYSTOR-like population —
the same "ZRWA is far too small for raw temporal locality" regime.""",
    "fig5": """Paper: one in-flight write retains 34.7-45.5% of a zone's bandwidth
(65.3% max loss) across 4-192 KiB sizes.
Measured: retention 0.18-0.45 growing with request size; 32 in-flight
writes saturate the zone at ~1.1-1.2 GB/s in every size. Shape match:
single in-flight cannot fill the die pipeline; depth restores it.""",
    "fig10a": """Paper: BIZA ~92.2% of the 6.4 GB/s ideal; dmzap+RAIZN capped at 47.7%
(3.1 GB/s); mdraid-based platforms in between, mdraid+dmzap hurt at larger
sizes; RAIZN has no random-write bars.
Measured: BIZA ~5.2 GB/s (~81% of ideal) vs dmzap+RAIZN ~1.0 GB/s and
raw RAIZN ~3.4 GB/s (53% of ideal, the journal cap); RAIZN columns empty
for random writes; mdraid platforms land between, with their random-write
columns below sequential (cache merging works for sequential streams, as
in the paper). The gap to dmzap+RAIZN is larger than the paper's 2.7x
because dm-zap's open-zone budget must reserve half its slots for zone
retirement in this model, halving its fan-out.""",
    "fig10b": """Paper: BIZA lowest average write latency among ZNS platforms (53.8%
below RAIZN at the same depth).
Measured: same ordering — BIZA's average latency is the lowest of the
ZNS-based platforms at every size (mdraid's volatile-cache ack gives it
small-write latencies BIZA does not try to match; the paper's mdraid rows
behave the same way).""",
    "fig11a": """Paper: all platforms comparable on 4 KiB reads; BIZA and dmzap+RAIZN
near the 12.8 GB/s ideal at larger sizes, mdraid-based slower.
Measured: 4 KiB reads comparable everywhere (~2.6-3.4 GB/s, controller
bound); larger reads reach ~5.4-6.6 GB/s for every platform (the read
path has no engine bottleneck; the remaining gap to ideal is per-command
overhead in the simulated controller).""",
    "fig11b": "Read latencies mirror the throughput table; no engine adds a read-path penalty.",
    "fig12": """Paper: dmzap+RAIZN trails mdraid+dmzap by ~2x on traces; BIZA improves
on mdraid+dmzap by 76.5% on average and is comparable to mdraid+ConvSSD
(slightly behind on the small-write traces casa/online/ikki).
Measured: same ordering on every trace — BIZA first or tied with
mdraid+ConvSSD, dmzap+RAIZN last on write-heavy traces; on casa/online/
ikki BIZA's margin is smallest, echoing the paper's observation about
small writes not stressing parallelism.""",
    "fig13a": """Paper: BIZA outperforms the RAIZN-based configuration by 26.6%/24.9%/
18.7% on randomwrite/fileserver/oltp and only marginally on webserver
(4.8% writes).
Measured (dmzap+RAIZN standing in for F2FS-on-RAIZN, see DESIGN.md):
3.15x / 2.70x / 1.80x / 0.99x — the same monotone pattern: gains track
write intensity and vanish for the read-dominated personality.""",
    "fig13b": """Paper: BIZA beats RAIZN by up to 10.5% (8.0% average) on db_bench fill
workloads over F2FS.
Measured: 1.1-1.6x over the RAIZN-based baseline across fillseq/
fillrandom/fillseekseq — direction and ordering as in the paper, with a
larger margin because the adapter baseline is weaker than native RAIZN.""",
    "fig14": """Paper: BIZA cuts write amplification 42.7% vs the best adapter baseline;
BIZAw/oSelector gives up 12.6% of the reduction; nocache writes 2.0x and
the ideal bound absorbs every update; gains shrink on long-reuse-distance
traces (tencent).
Measured: BIZA lands between the analytic ideal and nocache bounds on
every trace, below both adapter baselines on the short-reuse-distance
traces (casa/online/ikki), with the selector's contribution visible as
the BIZA vs BIZAw/oSel gap on reuse-heavy workloads and both converging
to the journal-bound 1.33 on tencent (90% of reuse distances beyond the
total ZRWA, as in the paper).""",
    "fig15": """Paper: GC inflates p99.99 tails on all platforms (dmzap+RAIZN by 10.3x,
mdraid+dmzap by 2.2x); BIZA's avoidance cuts the inflation by 27.4%
(iodepth 32) and 74.9% (iodepth 1) vs BIZAw/oAvoid.
Measured: with GC continuously active, BIZA's p99.99 sits 40-45% below
BIZAw/oAvoid on every size at both depths; dmzap+RAIZN's tails are the
worst by a wide margin (its GC is invisible to the host and serialized
behind the one-in-flight lock), and mdraid+dmzap inflates heavily at
64-192 KiB. Same ordering and direction as the paper; the multipliers vs
the idle baseline are larger because the sustained-churn scenario keeps
GC active for the entire measurement.""",
    "fig16": """Paper: write counts fall monotonically as ZRWA grows from 4 KiB to
1024 KiB; at 4 KiB no data updates are absorbed but ALL partial parities
are (parity drops to the 1/3 final-parity floor).
Measured: the 4 KiB row shows data ~1.0 with parity ~0.33 — exactly the
paper's anchor observation — and both components fall monotonically with
ZRWA size on casa and online.""",
    "fig17": """Paper: dm-zap's spin lock dominates CPU (50.4%/84.7% of dmzap+RAIZN and
mdraid+dmzap); BIZA spends ~31.5% more CPU than dmzap+RAIZN but delivers
88.5% more throughput, giving the best CPU-per-GB/s.
Measured: the dmzap component dwarfs every other engine component in both
adapter stacks, and BIZA's cpu%-per-GB/s is the lowest of the platforms.""",
    "table6": """Synthesized trace characteristics versus Table 6: write ratios match the
paper exactly by construction; average sizes approximate the table; the
last column verifies the reuse-distance calibration (casa ~8%, tencent
~83-90% beyond 56 MB, §5.4's anchors).""",
    "detect": """Extension experiment (design-choice ablation from DESIGN.md): the
guess-and-verify detector on aged devices. Avoidance with detection cuts
the fraction of user writes landing on truly-busy channels by 2-3x on
moderately aged devices, and the benefit degrades gracefully as the
round-robin prior gets worse.""",
    "batching": """Extension experiment: BIZA's contiguous-chunk submission merging versus
single-block commands — ~1.5x throughput at 64-192 KiB requests, the
per-command overhead argument for request merging above 4 KiB chunks.""",
    "wear": """Extension experiment: erase-count distribution after identical churn.
The selector halves BIZA's zone erases; dmzap+RAIZN concentrates wear on
its centralized journal zone (highest per-zone erase count), the §3.3
problem made visible at the flash level.""",
    "future": """Extension experiment implementing §6's "future ZNS designs" proposal:
the device piggybacks the zone-to-channel mapping in OPEN completions.
On heavily aged devices (75% of zones off the round-robin pattern) the
guess-and-verify detector leaves most guesses wrong; with CQE-informed
opens every guess is exact, the detector goes idle (zero corrections),
and the busy-channel collision rate drops severalfold — quantifying why
the paper asks vendors for this interface.""",
    "append": """Extension experiment quantifying §3.2's design argument: an APPEND-based
engine (ZapRAID-style) matches BIZA's sequential throughput within ~20%
(both exploit intra-zone parallelism), but without ZRWA every hot
overwrite reaches flash — BIZA's write counts on a hot-overwrite workload
are several times lower. This is the endurance case for choosing ZRWA
over APPEND despite APPEND's simpler reorder-safety story.""",
    "fleet": """Extension experiment: the multi-array sharded fleet
(`bizabench -exp fleet`). Hundreds of independent BIZA arrays are
partitioned across engine shards (`sim.ShardGroup`, one goroutine per
shard) while thousands of closed-loop clients hop between arrays over a
20 us fabric, with a zipf(0.9) popularity skew. The table bins arrays in
construction order; the skew shows up as the first bin carrying an
order of magnitude more traffic — and a queueing-inflated p50 — while
the cold tail stays at the uncontended ~15-20 us service latency. Output
is byte-identical at any `-shards` value (CI compares 1/2/8); the
wall-clock scaling is the benchmark ladder's `sim.shard2_speedup` rung
(`go run ./benchmark -ladder`), not any table cell.""",
    "fleet-clients": """Companion fairness view: per-client completed ops for the same run.
Closed-loop clients over a zipf-skewed fleet still all make progress;
the min/p50/p99 spread quantifies how much the popular arrays' queues
slow the clients that visit them.""",
    "tenants": """Extension experiment: multi-tenant QoS isolation
(`bizabench -exp tenants`, sharded like the fleet — byte-identical at
any `-shards`). Each array's block front end is multiplexed into named
tenant volumes (`internal/volume`): a latency-sensitive interactive
class (weight 16), a rate-limited batch class (weight 4 plus a token
bucket), and one saturating aggressor per array issuing deep 128 KiB
sequential writes. Three points share the workload: `baseline` idles
the aggressors, `qos` runs them under weighted-fair queueing with a
bounded dispatch window, `noqos` disables admission control. With QoS
the aggressor still gets throughput but the interactive class keeps
near-baseline tails and batch tenants hit their token bucket (nonzero
stalls); without it every class queues behind the aggressor backlog.
The jain column is Jain's fairness index over per-tenant completed ops
within the class (1.0 = perfectly even).""",
    "tenants-isolation": """The distilled isolation claim: each point's interactive p99 normalized
to the idle baseline. QoS holds the noisy-neighbor degradation under
the 2x acceptance bound pinned by `TestTenantsIsolation`; disabling it
lets the same workload blow past the bound — the gap between the two
rows is what the volume layer's WFQ + bounded window buys.""",
    "avail": """Extension experiment: availability across a member failure. A
byte-verified closed-loop workload runs while a deterministic fault plan
kills one member mid-run; the array detects the death from completion
errors, serves every read via parity reconstruction, hot-swaps a spare,
and rebuilds. Throughput collapses during the fault window (detection +
log-structured rebuild monopolize the survivors) and returns to within
~1% of the healthy rate after the rebuild; p99 latency spikes ~70x while
degraded. Every read in all three phases byte-verifies — the run panics
on any lost or torn acknowledged write.""",
}

ORDER = ["table2", "table3", "table6", "fig4", "fig5", "fig10a", "fig10b",
         "fig11a", "fig11b", "fig12", "fig13a", "fig13b", "fig14", "fig15",
         "fig16", "fig17", "detect", "batching", "wear", "append", "avail",
         "fleet", "fleet-clients", "tenants", "tenants-isolation", "future"]

HEADER = """# EXPERIMENTS — paper versus measured

Every table and figure of BIZA's evaluation (SOSP '24, §5), regenerated on
the simulated substrate at the default scale
(`bizabench -exp all`, 50 ms virtual windows, 60k-op traces; fully
deterministic). Absolute numbers come from the queueing model calibrated in
DESIGN.md — the reproduction target is each artifact's *shape*: who wins,
by roughly what factor, and where the crossovers fall. Regenerate any
entry with `go run ./cmd/bizabench -exp <id>`; `-exp all -quick` is a
fast smoke pass of the same artifacts.

Headline claims reproduced: BIZA reduces flash write counts below both
adapter baselines on reuse-friendly traces while staying within the
analytic [ideal, nocache] bounds (§5.4); delivers ~2.9x the write
throughput of dmzap+RAIZN (§5.2, paper 2.7x average); and cuts GC-period
p99.99 tails versus the no-avoidance ablation, most strongly in the
latency-sensitive depth-1 scenario (§5.5).
"""


FOOTER = """## Observability walkthrough: where does Fig. 10's time go?

Any experiment can be re-run with the tracer on and its contention
structure inspected without touching Perfetto's UI. For Fig. 10:

```bash
go run ./cmd/bizabench -exp fig10 -quick -trace fig10.json
go run ./cmd/bizatrace explain -top 4 fig10.json
```

`explain` aggregates each traced platform (one per grid cell): service
tracks ranked by busy time, I/O span latency per layer, zone/ZRWA/GC
event counts, and final probe values. The BIZA seq-4K cell opens with:

```
=== fig10/BIZA/0/BIZA (virtual span 4.056 ms) ===
  top contention sources (busy time):
    dev1 zns                     12.295 ms busy  (303.1% of span, 2484 slices)
    dev0 zns                     12.287 ms busy  (302.9% of span, 2482 slices)
    dev2 zns                     12.287 ms busy  (302.9% of span, 2482 slices)
    dev3 zns                     12.287 ms busy  (302.9% of span, 2482 slices)
  I/O spans:
    biza write               n=2999     mean latency     43.019 us
    nvme write               n=4965     mean latency     22.997 us
  zone/GC events:
    zone-state               32
    zrwa-commit/implicit     1843
  probes (final, nonzero):
    chan_write_busy_ns/dev0/ch1      915020
    chan_write_busy_ns/dev1/ch0      915018
```

Reading it against the paper: the four member devices are uniformly busy
(~3x the virtual span each — transfer, bus, and die phases overlap, so
busy time exceeds wall time on a parallel device), which is §4.2's
channel-aware striping doing its job; every ZRWA flush is an *implicit*
commit (1843 of them, zero explicit) because BIZA lets the rolling window
retire writes, §4.4; and the per-channel write-busy probes agree to
within ~0.001%, confirming no channel is a straggler. The same command on
the `dmzap+RAIZN` cells shows the serialization the paper blames instead:
`dev0 ch0` alone is ~94% busy (5x its siblings — the RAIZN metadata
journal pinned to one channel) while BIZA's channels stay balanced. At
full scale drop `-quick`; `-trace-sample 16` keeps the artifact small on
long runs (typed events are never sampled away).
"""


def main(path):
    text = open(path).read()
    blocks = {}
    for m in re.finditer(r"^== (\S+): .*?==\n(.*?)(?=\n^== |\nEXIT|\Z)",
                         text, re.S | re.M):
        blocks[m.group(1)] = m.group(0).rstrip()
    out = [HEADER]
    for key in ORDER:
        if key not in blocks and key not in COMMENTARY:
            continue
        out.append(f"## {key}\n")
        if key in COMMENTARY:
            out.append(COMMENTARY[key] + "\n")
        if key in blocks:
            out.append("```\n" + blocks[key] + "\n```\n")
        else:
            out.append("_(regenerate with `bizabench -exp %s`)_\n" % key)
    out.append(FOOTER)
    print("\n".join(out))


if __name__ == "__main__":
    main(sys.argv[1])
