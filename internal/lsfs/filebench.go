package lsfs

import (
	"fmt"

	"biza/internal/metrics"
	"biza/internal/sim"
)

// Personality is a filebench-like workload (§5.3: randomwrite, fileserver,
// oltp, webserver).
type Personality struct {
	Name       string
	Files      int
	FileBlocks int64 // size of each file in blocks
	WriteFrac  float64
	AppendFrac float64 // fraction of writes that append (vs overwrite)
	IOBlocks   int     // request size in blocks
	MetaFrac   float64 // fraction of ops that are create/delete churn
}

// Personalities matches the four benchmarks of Fig. 13a.
var Personalities = []Personality{
	{Name: "randomwrite", Files: 4, FileBlocks: 4096, WriteFrac: 1.0, AppendFrac: 0.0, IOBlocks: 2},
	{Name: "fileserver", Files: 64, FileBlocks: 256, WriteFrac: 0.67, AppendFrac: 0.5, IOBlocks: 4, MetaFrac: 0.08},
	{Name: "oltp", Files: 16, FileBlocks: 1024, WriteFrac: 0.55, AppendFrac: 0.1, IOBlocks: 1, MetaFrac: 0.01},
	{Name: "webserver", Files: 128, FileBlocks: 128, WriteFrac: 0.048, AppendFrac: 0.9, IOBlocks: 4, MetaFrac: 0.02},
}

// PersonalityByName finds a personality, or nil.
func PersonalityByName(name string) *Personality {
	for i := range Personalities {
		if Personalities[i].Name == name {
			return &Personalities[i]
		}
	}
	return nil
}

// BenchResult reports a personality run.
type BenchResult struct {
	Ops     uint64
	Bytes   uint64
	Elapsed sim.Time
	Errors  uint64
}

// OpsPerSec reports the achieved operation rate.
func (r BenchResult) OpsPerSec() float64 { return metrics.OpsPerSec(r.Ops, int64(r.Elapsed)) }

// Run drives the personality against fs with a closed loop of depth
// concurrent operations for the given number of ops.
func (p Personality) Run(eng *sim.Engine, fs *FS, depth, nOps int, seed uint64) (BenchResult, error) {
	rng := sim.NewRNG(seed ^ 0xf11e)
	var ids []int
	for i := 0; i < p.Files; i++ {
		id, err := fs.Create(fmt.Sprintf("%s-%d", p.Name, i))
		if err != nil {
			return BenchResult{}, err
		}
		ids = append(ids, id)
	}
	// Preallocate file contents so reads/overwrites have targets.
	prefill := 0
	for _, id := range ids {
		prefill++
		fs.WriteFile(id, 0, int(p.FileBlocks), func(error) { prefill-- })
		eng.Run()
	}
	eng.Run()

	res := BenchResult{}
	start := eng.Now()
	issued := 0
	var issue func()
	complete := func(err error) {
		if err != nil {
			res.Errors++
		} else {
			res.Ops++
		}
		issue()
	}
	nextName := 0
	issue = func() {
		if issued >= nOps {
			return
		}
		issued++
		id := ids[rng.Intn(len(ids))]
		if p.MetaFrac > 0 && rng.Float64() < p.MetaFrac {
			// Metadata churn: create + delete a scratch file.
			nextName++
			sid, err := fs.Create(fmt.Sprintf("%s-tmp-%d", p.Name, nextName))
			if err == nil {
				fs.WriteFile(sid, 0, 1, func(error) {
					fs.Delete(sid)
					complete(nil)
				})
				return
			}
			complete(err)
			return
		}
		size, _ := fs.SizeBlocks(id)
		if size < int64(p.IOBlocks) {
			size = int64(p.IOBlocks)
		}
		if rng.Float64() < p.WriteFrac {
			var fb int64
			if rng.Float64() < p.AppendFrac {
				fb = size
			} else {
				fb = rng.Int63n(size - int64(p.IOBlocks) + 1)
			}
			res.Bytes += uint64(p.IOBlocks) * uint64(fs.BlockSize())
			fs.WriteFile(id, fb, p.IOBlocks, complete)
			return
		}
		fb := rng.Int63n(size - int64(p.IOBlocks) + 1)
		res.Bytes += uint64(p.IOBlocks) * uint64(fs.BlockSize())
		fs.ReadFile(id, fb, p.IOBlocks, complete)
	}
	for i := 0; i < depth; i++ {
		issue()
	}
	eng.Run()
	res.Elapsed = eng.Now() - start
	return res, nil
}
