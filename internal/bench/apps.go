package bench

import (
	"fmt"

	"biza/internal/kvstore"
	"biza/internal/lsfs"
	"biza/internal/stack"
)

func init() {
	registerPoints("fig13a", personalityNames(), fig13aPoint)
	registerPoints("fig13b", []string{"fillseq", "fillrandom", "fillseekseq"}, fig13bPoint)
}

func personalityNames() []string {
	out := make([]string, len(lsfs.Personalities))
	for i := range lsfs.Personalities {
		out[i] = lsfs.Personalities[i].Name
	}
	return out
}

// appKinds are the platforms compared under real applications. The paper's
// "RAIZN" configuration runs F2FS on RAIZN plus a small block-interface
// area for metadata; since this filesystem drives the block interface, the
// dmzap+RAIZN composition stands in for it (documented in DESIGN.md), and
// results are normalized to that baseline as the paper normalizes to RAIZN.
var appKinds = []stack.Kind{stack.KindBIZA, stack.KindDmzapRAIZN,
	stack.KindMdraidDmzap, stack.KindMdraidConvSSD}

func newAppFS(r *Run, kind stack.Kind, stream string) (*stack.Platform, *lsfs.FS, error) {
	p, err := r.Platform(kind, stack.Options{Seed: r.Seed(stream + "/stack")})
	if err != nil {
		return nil, nil, err
	}
	cfg := lsfs.DefaultConfig()
	fs, err := lsfs.New(p.Eng, p.Dev, cfg)
	if err != nil {
		return nil, nil, err
	}
	return p, fs, nil
}

// fig13aPoint runs one filebench personality on the log-structured
// filesystem over each platform, ops/s normalized to the RAIZN-based
// baseline.
func fig13aPoint(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "fig13a", Title: "F2FS-like filesystem + filebench (ops/s, x = vs dmzap+RAIZN)",
		Header: []string{"workload", "BIZA", "dmzap+RAIZN", "mdraid+dmzap", "mdraid+ConvSSD", "BIZA_x"}}
	ops := s.TraceOps / 4
	if ops < 300 {
		ops = 300
	}
	pers := lsfs.PersonalityByName(point)
	row := []string{pers.Name}
	var rates []float64
	for _, kind := range appKinds {
		cell := pers.Name + "/" + string(kind)
		p, fs, err := newAppFS(r, kind, cell)
		if err != nil {
			panic(err)
		}
		res, err := pers.Run(p.Eng, fs, 16, ops, r.Seed(cell+"/wl"))
		if err != nil {
			panic(fmt.Sprintf("%s on %s: %v", pers.Name, kind, err))
		}
		rates = append(rates, res.OpsPerSec())
		row = append(row, f1(res.OpsPerSec()))
	}
	x := 0.0
	if rates[1] > 0 {
		x = rates[0] / rates[1]
	}
	row = append(row, f2(x))
	t.Add(row...)
	return []*Table{t}
}

// fig13bPoint runs one db_bench fill workload (16 B keys / 1 KiB values)
// of the LSM key-value store on the filesystem over each platform.
func fig13bPoint(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "fig13b", Title: "LSM KV store + db_bench (ops/s, x = vs dmzap+RAIZN)",
		Header: []string{"workload", "BIZA", "dmzap+RAIZN", "mdraid+dmzap", "mdraid+ConvSSD", "BIZA_x"}}
	ops := s.TraceOps / 4
	if ops < 300 {
		ops = 300
	}
	row := []string{point}
	var rates []float64
	for _, kind := range appKinds {
		cell := point + "/" + string(kind)
		p, fs, err := newAppFS(r, kind, cell)
		if err != nil {
			panic(err)
		}
		db, err := kvstore.Open(p.Eng, fs, kvstore.DefaultConfig())
		if err != nil {
			panic(err)
		}
		spec, err := kvstore.DefaultBench(point, ops)
		if err != nil {
			panic(err)
		}
		res := kvstore.RunBench(p.Eng, db, spec)
		rates = append(rates, res.OpsPerSec())
		row = append(row, f1(res.OpsPerSec()))
	}
	x := 0.0
	if rates[1] > 0 {
		x = rates[0] / rates[1]
	}
	row = append(row, f2(x))
	t.Add(row...)
	return []*Table{t}
}
