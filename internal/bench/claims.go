package bench

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// claim is one row of the claims ledger: a quantitative claim of the
// paper, how the tables measure it, and the band this repository holds it
// to at every scale. The shape tests assert the bands of the rows their
// experiment feeds; RenderMarkdown asserts all of them on the default-scale
// run and renders the verdicts into EXPERIMENTS.md.
type claim struct {
	name    string  // "<table id>/<what>"
	exp     string  // the experiment whose tables the row reads
	section string  // where the paper makes the claim
	text    string  // the paper's claim, one line
	paper   float64 // the paper's number; NaN for an extension's acceptance row
	null    float64 // the no-effect value: 1 for ratios, 0 for reductions
	tol     float64 // "holds" within tol·|paper − null| of the paper
	measure measureFn
	cause   string // why the verdict is not "holds"

	wantLo, wantHi float64 // inclusive band, held at every scale
}

// cellFn reads one numeric cell by table id, row label and column header.
type cellFn = func(table, row, col string) float64

type measureFn = func(cell cellFn) float64

// cells reads tables by table id, row label and column header. A row
// label is the row's identity columns joined by "/" ("BIZA/1/4" in fig15).
// The first missing or non-numeric cell is kept in err; later reads return
// "" or NaN.
type cells struct {
	tables []*Table
	err    error
}

func (c *cells) table(id string) *Table {
	for _, t := range c.tables {
		if t.ID == id {
			return t
		}
	}
	if c.err == nil {
		c.err = fmt.Errorf("no table %s", id)
	}
	return nil
}

func (c *cells) text(table, row, col string) string {
	if t := c.table(table); c.err == nil {
		for ci, h := range t.Header {
			for _, r := range t.Rows {
				if h == col && strings.Join(r[:t.labelCols()], "/") == row {
					return r[ci]
				}
			}
		}
		c.err = fmt.Errorf("no cell %s[%s][%s]", table, row, col)
	}
	return ""
}

func (c *cells) num(table, row, col string) float64 {
	s := c.text(table, row, col)
	if v, ok := parseCell(s); ok {
		return v
	}
	if c.err == nil {
		c.err = fmt.Errorf("cell %s[%s][%s] = %q is not a number", table, row, col, s)
	}
	return math.NaN()
}

// eval measures the claim on tables.
func (cl *claim) eval(tables []*Table) (float64, error) {
	c := &cells{tables: tables}
	m := cl.measure(c.num)
	return m, c.err
}

func (cl *claim) inBand(m float64) bool { return cl.wantLo <= m && m <= cl.wantHi }

// verdict compares measured m with the paper: "inverts" when the effect
// changes sign, "holds" within tolerance, else "grows" or "shrinks" by
// whether the measured effect is larger or smaller than the paper's.
func (cl *claim) verdict(m float64) string {
	p, n := cl.paper, cl.null
	switch {
	case math.IsNaN(p) || math.IsNaN(m):
		return "—"
	case (m-n)*(p-n) < 0:
		return "inverts"
	case math.Abs(m-p) <= cl.tol*math.Abs(p-n):
		return "holds"
	case math.Abs(m-n) > math.Abs(p-n):
		return "grows"
	}
	return "shrinks"
}

// The paper's ideal array bandwidths (§5.2).
const idealWriteMBps, idealReadMBps = 6400, 12800

var (
	inf     = math.Inf(1)
	noPaper = math.NaN()
)

func one(table, row, col string) measureFn {
	return func(c cellFn) float64 { return c(table, row, col) }
}

// rowRatio divides column col of row num by the same column of row den.
func rowRatio(table, col, num, den string) measureFn {
	return func(c cellFn) float64 { return c(table, num, col) / c(table, den, col) }
}

// colRatio divides column num of row by column den of the same row.
func colRatio(table, row, num, den string) measureFn {
	return func(c cellFn) float64 { return c(table, row, num) / c(table, row, den) }
}

// avg averages f over labels.
func avg(labels []string, f func(c cellFn, label string) float64) measureFn {
	return func(c cellFn) float64 {
		var sum float64
		for _, l := range labels {
			sum += f(c, l)
		}
		return sum / float64(len(labels))
	}
}

// retained folds fig5's depth-1 over depth-32 bandwidth across sizes.
func retained(pick func(a, b float64) float64) measureFn {
	return func(c cellFn) float64 {
		r := colRatio("fig5", "4", "inflight1_MBps", "inflight32_MBps")(c)
		for _, s := range []string{"16", "64", "128", "192"} {
			r = pick(r, colRatio("fig5", s, "inflight1_MBps", "inflight32_MBps")(c))
		}
		return r
	}
}

// bestAdapterWA is a fig14 trace's lower adapter-baseline write count.
func bestAdapterWA(c cellFn, w string) float64 {
	return math.Min(c("fig14", w, "dmzap+RAIZN"), c("fig14", w, "mdraid+dmzap"))
}

// avoidCut is how far GC avoidance lowers BIZA's fig15 p99.99 at depth.
func avoidCut(depth string) measureFn {
	return avg([]string{"4", "64", "192"}, func(c cellFn, s string) float64 {
		return 1 - rowRatio("fig15", "p9999_us", "BIZA/"+depth+"/"+s, "BIZAw/oAvoid/"+depth+"/"+s)(c)
	})
}

// cpuTotal sums a fig17 row's component columns.
func cpuTotal(c cellFn, row string) float64 {
	var sum float64
	for _, col := range []string{"mdraid%", "dmzap%", "raizn%", "biza%", "io%"} {
		sum += c("fig17", row, col)
	}
	return sum
}

var (
	seqCols   = []string{"seq4K", "seq64K", "seq192K"}
	largeCols = []string{"seq64K", "seq192K", "rand64K", "rand192K"}
	gcCells   = []string{"32/4", "32/64", "32/192", "1/4", "1/64", "1/192"} // fig15's depth/size labels
	cpuSizes  = []string{"64", "192"}
)

const (
	causeDmzap   = "dm-zap reserves half its open zones for zone retirement in this model, halving its fan-out"
	causeAdapter = "dmzap+RAIZN stands in for F2FS on RAIZN, and " + causeDmzap
	causeSpin    = "every writer's whole wait behind a dm-zap zone lock is charged as spinning CPU, uncapped by the host's cores"
	causeChurn   = "the churn keeps GC active for the whole window, and p9999_x divides by BIZA's no-GC tail, not the platform's own"
	single, same = "1. single zone", "2. two zones, identical channel"
)

// ledger is every paper-versus-measured claim, in IDs() order. Paper
// values come from DESIGN.md's headline claims and the paper's text as
// EXPERIMENTS.md quoted it; a comment names the source where they
// disagreed.
var ledger = []claim{
	{name: "table2/zn540-zone-cap-mb", exp: "table2", section: "Table 2", text: "WD ZN540 zones hold 1077 MB",
		paper: 1077, measure: one("table2", "WD ZN540", "zone_cap_MB"), wantLo: 1077, wantHi: 1077},
	{name: "table2/zn540-zrwa-kb", exp: "table2", section: "Table 2", text: "a ZN540 open zone has 1024 KiB of ZRWA",
		paper: 1024, measure: one("table2", "WD ZN540", "zrwa_per_zone_KB"), wantLo: 1024, wantHi: 1024},
	{name: "table2/zn540-max-open", exp: "table2", section: "Table 2", text: "a ZN540 opens at most 14 zones",
		paper: 14, measure: one("table2", "WD ZN540", "max_open"), wantLo: 14, wantHi: 14},
	{name: "table2/zn540-total-zrwa-mb", exp: "table2", section: "Table 2", text: "a ZN540 has 14 MB of ZRWA in all",
		paper: 14, measure: one("table2", "WD ZN540", "total_zrwa_MB"), wantLo: 14, wantHi: 14},
	{name: "table3/single-zone-mbps", exp: "table3", section: "Table 3", text: "one zone writes 64 KiB at 1092 MB/s",
		paper: 1092, tol: 0.1, measure: one("table3", single, "bandwidth_MBps"), wantLo: 900, wantHi: 1300},
	{name: "table3/same-channel-bw-x", exp: "table3", section: "Table 3", text: "two zones on one channel stay at 1092 MB/s",
		paper: 1, null: 2, tol: 0.1, measure: rowRatio("table3", "bandwidth_MBps", same, single), wantLo: 0.5, wantHi: 1.25},
	{name: "table3/diverse-channel-bw-x", exp: "table3", section: "Table 3", text: "two zones on diverse channels reach 2170 MB/s",
		paper: 2170.0 / 1092, null: 1, tol: 0.1, measure: rowRatio("table3", "bandwidth_MBps", "3. two zones, diverse channels", single),
		cause: "the single zone runs above 1092 MB/s while the pair lands on 2170 MB/s", wantLo: 1.6, wantHi: 2.2},
	{name: "table3/same-channel-lat-x", exp: "table3", section: "Table 3", text: "sharing a channel doubles average latency",
		paper: 2, null: 1, tol: 0.25, measure: rowRatio("table3", "avg_lat_us", same, single), wantLo: 1.5, wantHi: 2.5},
	// The old DESIGN.md headline said ~3x and the old EXPERIMENTS.md prose
	// ~4x; neither cites more, and the design document's value is kept.
	{name: "table3/same-channel-p9999-x", exp: "table3", section: "Table 3", text: "sharing a channel triples p99.99 latency",
		paper: 3, null: 1, tol: 0.25, measure: rowRatio("table3", "p9999_us", same, single), wantLo: 1.5, wantHi: inf},
	{name: "fig4/cdf-14mb", exp: "fig4", section: "Fig. 4", text: "only ~17 % of SYSTOR reuse distances fit in the ZN540's 14 MB of ZRWA",
		paper: 0.17, null: 1, tol: 0.1, measure: one("fig4", "14MB", "cdf"), wantLo: 0, wantHi: 0.5},
	{name: "fig5/retained-min", exp: "fig5", section: "Fig. 5", text: "one in-flight write keeps at least 34.7 % of a zone's bandwidth (4–192 KiB)",
		paper: 0.347, null: 1, tol: 0.1, measure: retained(math.Min), wantLo: 0.05, wantHi: 0.7},
	{name: "fig5/retained-max", exp: "fig5", section: "Fig. 5", text: "… and at most 45.5 %",
		paper: 0.455, null: 1, tol: 0.1, measure: retained(math.Max), wantLo: 0.05, wantHi: 0.7},
	{name: "fig10a/biza-of-ideal", exp: "fig10", section: "§5.2 Fig. 10a", text: "BIZA writes at 92.2 % of the 6.4 GB/s ideal",
		paper: 0.922, tol: 0.1, measure: func(c cellFn) float64 { return c("fig10a", "BIZA", "seq64K") / idealWriteMBps }, wantLo: 0.5, wantHi: 1},
	// §5.2 caps dmzap+RAIZN at the 47.7 % that §2.3 measures for RAIZN itself.
	{name: "fig10a/dmzap-raizn-of-ideal", exp: "fig10", section: "§5.2 Fig. 10a", text: "dmzap+RAIZN is capped at 47.7 % of ideal (3.1 GB/s)",
		paper: 0.477, tol: 0.1, measure: func(c cellFn) float64 { return c("fig10a", "dmzap+RAIZN", "seq64K") / idealWriteMBps },
		cause: causeDmzap, wantLo: 0.05, wantHi: 0.6},
	{name: "fig10a/raizn-of-ideal", exp: "fig10", section: "§2.3", text: "RAIZN's centralized metadata journal holds it at 47.7 % of ideal",
		paper: 0.477, tol: 0.1, measure: func(c cellFn) float64 { return c("fig10a", "RAIZN", "seq64K") / idealWriteMBps },
		cause: "the journal is modelled as one block per incomplete stripe row (DESIGN.md \"Additional substitutions\")", wantLo: 0.3, wantHi: 0.7},
	// The old DESIGN.md headline's +93.2 % is §5.2's 92.2 % over 47.7 % of
	// ideal; the old EXPERIMENTS.md prose's "2.7x average" matched neither.
	{name: "fig10a/biza-over-dmzap-raizn", exp: "fig10", section: "§5.2 Fig. 10a", text: "BIZA writes 93.2 % faster than dmzap+RAIZN",
		paper: 1.932, null: 1, tol: 0.1, measure: rowRatio("fig10a", "seq64K", "BIZA", "dmzap+RAIZN"), cause: causeDmzap, wantLo: 1.5, wantHi: inf},
	{name: "fig10a/biza-over-mdraid-dmzap", exp: "fig10", section: "§5.2 Fig. 10a", text: "mdraid+dmzap lands below BIZA",
		paper: noPaper, measure: rowRatio("fig10a", "seq64K", "BIZA", "mdraid+dmzap"), wantLo: 1.05, wantHi: inf},
	{name: "fig10b/biza-lat-cut-vs-raizn", exp: "fig10", section: "§5.2 Fig. 10b", text: "BIZA's average write latency is 53.8 % below RAIZN's",
		paper: 0.538, tol: 0.25, measure: avg(seqCols, func(c cellFn, col string) float64 { return 1 - rowRatio("fig10b", col, "BIZA", "RAIZN")(c) }),
		wantLo: 0.1, wantHi: 1},
	{name: "fig11a/biza-read-of-ideal", exp: "fig11", section: "§5.2 Fig. 11a", text: "BIZA reads 64–192 KiB near the 12.8 GB/s ideal",
		paper: 1, tol: 0.1, measure: avg(largeCols, func(c cellFn, col string) float64 { return c("fig11a", "BIZA", col) / idealReadMBps }),
		cause: "the simulated controller's per-command overhead caps reads below the links", wantLo: 0.3, wantHi: 1.2},
	{name: "fig12/biza-over-mdraid-dmzap", exp: "fig12", section: "Fig. 12", text: "BIZA improves on mdraid+dmzap by 76.5 % on average",
		paper: 1.765, null: 1, tol: 0.1, measure: avg(profileNames(), func(c cellFn, w string) float64 { return colRatio("fig12", w, "BIZA", "mdraid+dmzap")(c) }),
		wantLo: 1, wantHi: inf},
	{name: "fig12/mdraid-dmzap-over-dmzap-raizn", exp: "fig12", section: "Fig. 12", text: "dmzap+RAIZN trails mdraid+dmzap by ~2x",
		paper: 2, null: 1, tol: 0.1, measure: avg(profileNames(), func(c cellFn, w string) float64 { return colRatio("fig12", w, "mdraid+dmzap", "dmzap+RAIZN")(c) }),
		wantLo: 1, wantHi: inf},
	{name: "fig13a/randomwrite-x", exp: "fig13a", section: "Fig. 13a", text: "BIZA beats the RAIZN configuration by 26.6 % on randomwrite",
		paper: 1.266, null: 1, tol: 0.1, measure: one("fig13a", "randomwrite", "BIZA_x"), cause: causeAdapter, wantLo: 1, wantHi: inf},
	{name: "fig13a/fileserver-x", exp: "fig13a", section: "Fig. 13a", text: "… by 24.9 % on fileserver",
		paper: 1.249, null: 1, tol: 0.1, measure: one("fig13a", "fileserver", "BIZA_x"), cause: causeAdapter, wantLo: 1, wantHi: inf},
	{name: "fig13a/oltp-x", exp: "fig13a", section: "Fig. 13a", text: "… by 18.7 % on oltp",
		paper: 1.187, null: 1, tol: 0.1, measure: one("fig13a", "oltp", "BIZA_x"), cause: causeAdapter, wantLo: 1, wantHi: inf},
	{name: "fig13b/biza-x", exp: "fig13b", section: "Fig. 13b", text: "BIZA beats RAIZN by 8.0 % on average on db_bench fills",
		paper: 1.08, null: 1, tol: 0.1, measure: avg([]string{"fillseq", "fillrandom", "fillseekseq"}, func(c cellFn, w string) float64 { return c("fig13b", w, "BIZA_x") }),
		cause: causeAdapter, wantLo: 1, wantHi: inf},
	{name: "fig14/biza-wa-cut-vs-best-adapter", exp: "fig14", section: "§5.4 Fig. 14", text: "BIZA writes 42.7 % less than the best adapter baseline",
		paper: 0.427, tol: 0.1, measure: avg(profileNames(), func(c cellFn, w string) float64 { return 1 - c("fig14", w, "BIZA")/bestAdapterWA(c, w) }),
		wantLo: -0.2, wantHi: 1},
	{name: "fig14/selector-wa-cut", exp: "fig14", section: "§5.4 Fig. 14", text: "BIZAw/oSelector gives up 12.6 points of that cut",
		paper: 0.126, tol: 0.1, measure: avg(profileNames(), func(c cellFn, w string) float64 {
			return (c("fig14", w, "BIZAw/oSel") - c("fig14", w, "BIZA")) / bestAdapterWA(c, w)
		}), wantLo: 0, wantHi: 1},
	{name: "fig14/casa-biza-over-nosel", exp: "fig14", section: "§5.4 Fig. 14", text: "on casa the selector does not add writes",
		paper: noPaper, measure: colRatio("fig14", "casa", "BIZA", "BIZAw/oSel"), wantLo: 0, wantHi: 1},
	{name: "fig14/casa-biza-over-dmzap-raizn", exp: "fig14", section: "§5.4 Fig. 14", text: "on casa BIZA writes less than dmzap+RAIZN",
		paper: noPaper, measure: colRatio("fig14", "casa", "BIZA", "dmzap+RAIZN"), wantLo: 0, wantHi: 0.99},
	{name: "fig14/casa-biza-over-ideal", exp: "fig14", section: "§5.4 Fig. 14", text: "on casa BIZA stays above the ideal bound",
		paper: noPaper, measure: colRatio("fig14", "casa", "BIZA", "ideal"), wantLo: 0.95, wantHi: inf},
	{name: "fig14/casa-biza-over-nocache", exp: "fig14", section: "§5.4 Fig. 14", text: "on casa BIZA stays near or below the nocache bound",
		paper: noPaper, measure: colRatio("fig14", "casa", "BIZA", "nocache"), wantLo: 0, wantHi: 1.3},
	{name: "fig15/biza-p9999-cut-vs-best-zns", exp: "fig15", section: "§5.5 Fig. 15", text: "BIZA's p99.99 under GC is 62.8 % below the best block-interface ZNS baseline",
		paper: 0.628, tol: 0.25, measure: avg(gcCells, func(c cellFn, dc string) float64 {
			return 1 - c("fig15", "BIZA/"+dc, "p9999_us")/math.Min(c("fig15", "dmzap+RAIZN/"+dc, "p9999_us"), c("fig15", "mdraid+dmzap/"+dc, "p9999_us"))
		}), cause: "mdraid+dmzap acknowledges 4 KiB writes from its volatile stripe cache, so its 4 KiB tails stay below BIZA's idle ones",
		wantLo: -inf, wantHi: 1},
	{name: "fig15/avoid-cut-depth32", exp: "fig15", section: "§5.5 Fig. 15", text: "GC avoidance cuts BIZA's p99.99 inflation by 27.4 % at iodepth 32",
		paper: 0.274, tol: 0.25, measure: avoidCut("32"), wantLo: 0.05, wantHi: 1},
	{name: "fig15/avoid-cut-depth1", exp: "fig15", section: "§5.5 Fig. 15", text: "… and by 74.9 % at iodepth 1",
		paper: 0.749, tol: 0.25, measure: avoidCut("1"), wantLo: 0.05, wantHi: 1},
	{name: "fig15/dmzap-raizn-inflation", exp: "fig15", section: "§5.5 Fig. 15", text: "GC inflates dmzap+RAIZN's p99.99 10.3x",
		paper: 10.3, null: 1, tol: 0.25, measure: avg(gcCells, func(c cellFn, dc string) float64 { return c("fig15", "dmzap+RAIZN/"+dc, "p9999_x") }),
		cause: causeChurn, wantLo: 1, wantHi: inf},
	{name: "fig15/mdraid-dmzap-inflation", exp: "fig15", section: "§5.5 Fig. 15", text: "… and mdraid+dmzap's 2.2x",
		paper: 2.2, null: 1, tol: 0.25, measure: avg(gcCells, func(c cellFn, dc string) float64 { return c("fig15", "mdraid+dmzap/"+dc, "p9999_x") }),
		cause: causeChurn, wantLo: 1, wantHi: inf},
	{name: "fig16/parity-at-4k", exp: "fig16", section: "Fig. 16", text: "with 4 KiB of ZRWA every partial parity is still absorbed: parity falls to the 1/3 floor",
		paper: 1.0 / 3, null: 1, tol: 0.1, measure: avg([]string{"casa_parity", "online_parity"}, func(c cellFn, col string) float64 { return c("fig16", "4", col) }),
		wantLo: 0.3, wantHi: 0.37},
	{name: "fig17/dmzap-share-dmzap-raizn", exp: "fig17", section: "§5.7 Fig. 17", text: "dm-zap's spin lock takes 50.4 % of dmzap+RAIZN's CPU",
		paper: 0.504, tol: 0.1, measure: avg(cpuSizes, func(c cellFn, s string) float64 {
			return c("fig17", "dmzap+RAIZN/"+s, "dmzap%") / cpuTotal(c, "dmzap+RAIZN/"+s)
		}),
		cause: causeSpin, wantLo: 0.3, wantHi: 1},
	{name: "fig17/dmzap-share-mdraid-dmzap", exp: "fig17", section: "§5.7 Fig. 17", text: "… and 84.7 % of mdraid+dmzap's",
		paper: 0.847, tol: 0.1, measure: avg(cpuSizes, func(c cellFn, s string) float64 {
			return c("fig17", "mdraid+dmzap/"+s, "dmzap%") / cpuTotal(c, "mdraid+dmzap/"+s)
		}),
		cause: causeSpin, wantLo: 0.3, wantHi: 1},
	{name: "fig17/biza-cpu-over-dmzap-raizn", exp: "fig17", section: "§5.7 Fig. 17", text: "BIZA spends 31.5 % more CPU than dmzap+RAIZN",
		paper: 1.315, null: 1, tol: 0.1, measure: avg(cpuSizes, func(c cellFn, s string) float64 { return cpuTotal(c, "BIZA/"+s) / cpuTotal(c, "dmzap+RAIZN/"+s) }),
		cause: causeSpin, wantLo: 0, wantHi: inf},
	{name: "fig17/biza-gbps-over-dmzap-raizn", exp: "fig17", section: "§5.7 Fig. 17", text: "… while writing 88.5 % faster",
		paper: 1.885, null: 1, tol: 0.1, measure: avg(cpuSizes, func(c cellFn, s string) float64 { return rowRatio("fig17", "GBps", "BIZA/"+s, "dmzap+RAIZN/"+s)(c) }),
		cause: causeDmzap, wantLo: 1, wantHi: inf},
	{name: "detect/avoid-collision-cut-0.25", exp: "detect", section: "ext. §4.3", text: "avoidance lowers busy-channel collisions with a quarter of zones shuffled",
		paper: noPaper, measure: func(c cellFn) float64 {
			return c("detect", "0.25", "collide_noavoid") - c("detect", "0.25", "collide_avoid")
		}, wantLo: 0.001, wantHi: 1},
	{name: "detect/avoid-collision-cut-0.50", exp: "detect", section: "ext. §4.3", text: "… and with half of them shuffled",
		paper: noPaper, measure: func(c cellFn) float64 {
			return c("detect", "0.50", "collide_noavoid") - c("detect", "0.50", "collide_avoid")
		}, wantLo: 0.001, wantHi: 1},
	{name: "tenants/qos-p99-x", exp: "tenants", section: "ext.", text: "with QoS the interactive p99 stays under 2x its idle baseline",
		paper: noPaper, measure: one("tenants-isolation", "qos", "vs_baseline"), wantLo: 0, wantHi: 1.99},
	{name: "tenants/noqos-p99-x", exp: "tenants", section: "ext.", text: "without QoS it passes 2x",
		paper: noPaper, measure: one("tenants-isolation", "noqos", "vs_baseline"), wantLo: 2.01, wantHi: inf},
	{name: "rolling/paced-over-unpaced-window", exp: "rolling", section: "ext.", text: "pacing a rolling replacement lengthens its window",
		paper: noPaper, measure: rowRatio("rolling-window", "window_ms", "paced", "unpaced"), wantLo: 1.01, wantHi: inf},
	{name: "rolling/slow-over-paced-window", exp: "rolling", section: "ext.", text: "… and slower pacing lengthens it further",
		paper: noPaper, measure: rowRatio("rolling-window", "window_ms", "slow", "paced"), wantLo: 1.01, wantHi: inf},
}

// RenderMarkdown writes the generated body of EXPERIMENTS.md for a
// default-scale report: the ledger's verdicts, then each experiment of
// IDs() with its claims and its tables. The error joins every failed or
// missing experiment, missing cell and row outside its band; the text is
// written regardless.
func RenderMarkdown(w io.Writer, rep *Report) error {
	tables, results, errs := collect(rep)
	measured := make([]float64, len(ledger))
	for i := range ledger {
		cl := &ledger[i]
		m, err := cl.eval(tables)
		if err == nil && !cl.inBand(m) {
			err = fmt.Errorf("%.4g is outside [%g, %g]", m, cl.wantLo, cl.wantHi)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", cl.name, err))
		}
		measured[i] = m
	}

	fmt.Fprint(w, "| row | § | paper | measured | ratio | verdict | cause |\n|---|---|--:|--:|--:|---|---|\n")
	for i, cl := range ledger {
		m, v, cause := measured[i], cl.verdict(measured[i]), ""
		if v != "holds" && v != "—" {
			cause = cmp.Or(cl.cause, "unexplained")
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s | %s |\n",
			cl.name, cl.section, num(cl.paper), num(m), num(m/cl.paper), v, cause)
	}
	for _, id := range IDs() {
		fmt.Fprintf(w, "\n## %s\n", id)
		rows := 0
		for i, cl := range ledger {
			if cl.exp != id {
				continue
			}
			if rows++; rows == 1 {
				fmt.Fprint(w, "\n| row | claim | measured | verdict |\n|---|---|--:|---|\n")
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", cl.name, cl.text, num(measured[i]), cl.verdict(measured[i]))
		}
		res := results[id]
		if res == nil {
			errs = append(errs, fmt.Errorf("%s is not in the report", id))
			continue
		}
		fmt.Fprint(w, "\n```\n")
		for j, t := range res.Tables {
			if j > 0 {
				fmt.Fprintln(w)
			}
			for _, line := range strings.Split(strings.TrimSuffix(t.String(), "\n"), "\n") {
				fmt.Fprintln(w, strings.TrimRight(line, " "))
			}
		}
		fmt.Fprint(w, "```\n")
	}
	return errors.Join(errs...)
}

// collect gathers a report's tables and results by experiment, with an
// error for every experiment that failed.
func collect(rep *Report) (tables []*Table, results map[string]*Result, errs []error) {
	results = map[string]*Result{}
	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Error != "" {
			errs = append(errs, fmt.Errorf("%s failed: %s", res.Experiment, res.Error))
		}
		results[res.Experiment] = res
		tables = append(tables, res.Tables...)
	}
	return tables, results, errs
}

// CompareClaims evaluates every ledger row on two reports of the same
// sweep, parent and change, and writes each row whose measured value moved.
// It is the check for a change meant to move simulated numbers: the error
// joins every row whose verdict changed, that left its band (a -quick sweep
// starts some rows outside theirs), or whose value moved by more than
// tol·|paper − null| (a row with no paper value is held to its band only),
// and every experiment that failed. Rows of experiments neither report ran
// are skipped.
func CompareClaims(w io.Writer, parent, change *Report) error {
	pt, pres, errs := collect(parent)
	ct, cres, cerrs := collect(change)
	errs = append(errs, cerrs...)
	moved := 0
	for i := range ledger {
		cl := &ledger[i]
		if pres[cl.exp] == nil && cres[cl.exp] == nil {
			continue
		}
		p, err := cl.eval(pt)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: parent: %w", cl.name, err))
			continue
		}
		c, err := cl.eval(ct)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: change: %w", cl.name, err))
			continue
		}
		pv, cv := cl.verdict(p), cl.verdict(c)
		if cl.inBand(p) && !cl.inBand(c) {
			errs = append(errs, fmt.Errorf("%s: %.4g left [%g, %g]", cl.name, c, cl.wantLo, cl.wantHi))
		}
		if pv != cv {
			errs = append(errs, fmt.Errorf("%s: verdict %s became %s", cl.name, pv, cv))
		}
		if p == c {
			continue
		}
		moved++
		d, allowed := math.Abs(c-p), cl.tol*math.Abs(cl.paper-cl.null)
		fmt.Fprintf(w, "%-40s %10.4g -> %-10.4g %s -> %s, moved %s (tolerance %s)\n", cl.name, p, c, pv, cv, num(d), num(allowed))
		if d > allowed { // false for NaN: a row with no paper value
			errs = append(errs, fmt.Errorf("%s: moved %.4g, more than its tolerance %.4g", cl.name, d, allowed))
		}
	}
	fmt.Fprintf(w, "%d ledger rows moved\n", moved)
	return errors.Join(errs...)
}

// num formats a ledger number to three significant digits; NaN is "—".
func num(v float64) string {
	switch {
	case math.IsNaN(v):
		return "—"
	case math.Abs(v) >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}
