// Package lsfs implements a log-structured filesystem in the style of F2FS
// (§5.3's application substrate): file data appends sequentially into
// segments of a main area, while a small metadata region at the front of
// the device absorbs random in-place updates (the "two-zone-sized
// random-write space" the paper notes F2FS requires). Segment cleaning
// migrates live blocks out of sparse segments and trims the freed space.
//
// The filesystem exercises exactly the block-level pattern the paper's
// F2FS evaluation produces: mostly-sequential data writes plus a hot
// random metadata stream — which is what makes the underlying AFA's
// ZRWA/placement policies matter.
package lsfs

import (
	"errors"
	"fmt"
	"sort"

	"biza/internal/blockdev"
	"biza/internal/sim"
)

// Config tunes the filesystem.
type Config struct {
	// MetaBlocks is the random-write metadata region size in blocks.
	MetaBlocks int64
	// SegmentBlocks is the cleaning/allocation unit of the main area.
	SegmentBlocks int64
}

// DefaultConfig sizes the filesystem for the device.
func DefaultConfig() Config {
	return Config{
		MetaBlocks:    2048, // 8 MiB metadata region
		SegmentBlocks: 512,  // 2 MiB segments
	}
}

const (
	// metaPerDataWrites issues one metadata block update per this many
	// data block writes (node/NAT/SIT traffic ratio).
	metaPerDataWrites = 8
	// cleanThresholdFree triggers segment cleaning below this many free
	// segments.
	cleanThresholdFree = 4
)

// FS is the filesystem instance. Single simulation goroutine.
type FS struct {
	cfg Config
	dev blockdev.Device
	eng *sim.Engine

	segments  int64
	mainBase  int64 // first block of the main area
	curSeg    int64
	curOff    int64
	freeSegs  []int64
	liveCount []int64   // live blocks per segment
	owner     [][]int64 // segment -> per-block (fileID<<32 | fileBlock), -1 free
	metaRR    *sim.RNG

	files  map[int]*file
	nextID int

	cleaning bool

	// Accounting.
	metaWrites uint64
	cleanRuns  uint64
}

type file struct {
	id     int
	name   string
	blocks []int64 // file block -> device block, -1 hole
}

// Errors.
var (
	ErrNotFound = errors.New("lsfs: file not found")
	ErrExists   = errors.New("lsfs: file exists")
	ErrNoSpace  = errors.New("lsfs: filesystem full")
)

// New formats a filesystem onto dev.
func New(eng *sim.Engine, dev blockdev.Device, cfg Config) (*FS, error) {
	if cfg.MetaBlocks < 1 || cfg.SegmentBlocks < 1 {
		return nil, fmt.Errorf("lsfs: bad config %+v", cfg)
	}
	mainBlocks := dev.Blocks() - cfg.MetaBlocks
	if mainBlocks < cfg.SegmentBlocks*4 {
		return nil, fmt.Errorf("lsfs: device too small (%d blocks)", dev.Blocks())
	}
	fs := &FS{
		cfg:      cfg,
		dev:      dev,
		eng:      eng,
		mainBase: cfg.MetaBlocks,
		segments: mainBlocks / cfg.SegmentBlocks,
		files:    make(map[int]*file),
		metaRR:   sim.NewRNG(0x1f5),
	}
	fs.liveCount = make([]int64, fs.segments)
	fs.owner = make([][]int64, fs.segments)
	for s := int64(0); s < fs.segments; s++ {
		fs.freeSegs = append(fs.freeSegs, s)
		fs.owner[s] = make([]int64, cfg.SegmentBlocks)
		for i := range fs.owner[s] {
			fs.owner[s][i] = -1
		}
	}
	fs.curSeg = fs.takeFreeSeg()
	return fs, nil
}

// BlockSize reports the device block size.
func (fs *FS) BlockSize() int { return fs.dev.BlockSize() }

func (fs *FS) takeFreeSeg() int64 {
	if len(fs.freeSegs) == 0 {
		return -1
	}
	s := fs.freeSegs[0]
	fs.freeSegs = fs.freeSegs[1:]
	fs.curOff = 0
	return s
}

// Create makes an empty file and returns its id.
func (fs *FS) Create(name string) (int, error) {
	for _, f := range fs.files {
		if f.name == name {
			return 0, ErrExists
		}
	}
	fs.nextID++
	id := fs.nextID
	fs.files[id] = &file{id: id, name: name}
	return id, nil
}

// SizeBlocks reports a file's length in blocks.
func (fs *FS) SizeBlocks(id int) (int64, error) {
	f, ok := fs.files[id]
	if !ok {
		return 0, ErrNotFound
	}
	return int64(len(f.blocks)), nil
}

// allocBlock assigns the next main-area block, advancing segments.
func (fs *FS) allocBlock(owner int64) (int64, error) {
	if fs.curSeg < 0 || fs.curOff >= fs.cfg.SegmentBlocks {
		fs.curSeg = fs.takeFreeSeg()
		if fs.curSeg < 0 {
			return -1, ErrNoSpace
		}
	}
	seg, off := fs.curSeg, fs.curOff
	fs.curOff++
	fs.owner[seg][off] = owner
	fs.liveCount[seg]++
	fs.maybeClean()
	return fs.mainBase + seg*fs.cfg.SegmentBlocks + off, nil
}

func (fs *FS) invalidate(devBlock int64) {
	if devBlock < fs.mainBase {
		return
	}
	rel := devBlock - fs.mainBase
	seg := rel / fs.cfg.SegmentBlocks
	off := rel % fs.cfg.SegmentBlocks
	if fs.owner[seg][off] >= 0 {
		fs.owner[seg][off] = -1
		fs.liveCount[seg]--
	}
}

// WriteFile writes nblocks of file id starting at file block fb; done
// fires when data and induced metadata are acknowledged.
func (fs *FS) WriteFile(id int, fb int64, nblocks int, done func(error)) {
	f, ok := fs.files[id]
	if !ok {
		fs.eng.After(sim.Microsecond, func() { done(ErrNotFound) })
		return
	}
	for int64(len(f.blocks)) < fb+int64(nblocks) {
		f.blocks = append(f.blocks, -1)
	}
	remaining := 0
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 && done != nil {
			done(firstErr)
		}
	}
	// Allocate a contiguous run and write it as one request (log append).
	type run struct {
		dev    int64
		blocks int
	}
	var runs []run
	for i := 0; i < nblocks; i++ {
		ownerTag := int64(id)<<32 | (fb + int64(i))
		if old := f.blocks[fb+int64(i)]; old >= 0 {
			fs.invalidate(old)
		}
		nb, err := fs.allocBlock(ownerTag)
		if err != nil {
			fs.eng.After(sim.Microsecond, func() { done(err) })
			return
		}
		f.blocks[fb+int64(i)] = nb
		if len(runs) > 0 && runs[len(runs)-1].dev+int64(runs[len(runs)-1].blocks) == nb {
			runs[len(runs)-1].blocks++
		} else {
			runs = append(runs, run{dev: nb, blocks: 1})
		}
	}
	remaining = len(runs)
	for _, r := range runs {
		fs.dev.Write(r.dev, r.blocks, nil, func(w blockdev.WriteResult) { finish(w.Err) })
	}
	// Node/NAT metadata: random in-place updates in the metadata region.
	metaCount := nblocks / metaPerDataWrites
	if metaCount < 1 {
		metaCount = 1
	}
	for i := 0; i < metaCount; i++ {
		remaining++
		mb := fs.metaRR.Int63n(fs.cfg.MetaBlocks)
		fs.metaWrites++
		fs.dev.Write(mb, 1, nil, func(w blockdev.WriteResult) { finish(w.Err) })
	}
}

// ReadFile reads nblocks of file id starting at file block fb.
func (fs *FS) ReadFile(id int, fb int64, nblocks int, done func(error)) {
	f, ok := fs.files[id]
	if !ok {
		fs.eng.After(sim.Microsecond, func() { done(ErrNotFound) })
		return
	}
	remaining := 0
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 && done != nil {
			done(firstErr)
		}
	}
	type run struct {
		dev    int64
		blocks int
	}
	var runs []run
	for i := 0; i < nblocks; i++ {
		idx := fb + int64(i)
		if idx >= int64(len(f.blocks)) || f.blocks[idx] < 0 {
			continue // hole
		}
		nb := f.blocks[idx]
		if len(runs) > 0 && runs[len(runs)-1].dev+int64(runs[len(runs)-1].blocks) == nb {
			runs[len(runs)-1].blocks++
		} else {
			runs = append(runs, run{dev: nb, blocks: 1})
		}
	}
	if len(runs) == 0 {
		fs.eng.After(sim.Microsecond, func() { done(nil) })
		return
	}
	remaining = len(runs)
	for _, r := range runs {
		fs.dev.Read(r.dev, r.blocks, func(res blockdev.ReadResult) { finish(res.Err) })
	}
}

// Delete removes a file, invalidating and trimming its blocks.
func (fs *FS) Delete(id int) error {
	f, ok := fs.files[id]
	if !ok {
		return ErrNotFound
	}
	for _, b := range f.blocks {
		if b >= 0 {
			fs.invalidate(b)
			fs.dev.Trim(b, 1)
		}
	}
	delete(fs.files, id)
	// Directory update: one metadata write.
	fs.metaWrites++
	fs.dev.Write(fs.metaRR.Int63n(fs.cfg.MetaBlocks), 1, nil, nil)
	return nil
}

// maybeClean runs segment cleaning when free segments are scarce: pick the
// segment with the fewest live blocks, migrate them, trim the segment.
func (fs *FS) maybeClean() {
	if fs.cleaning || len(fs.freeSegs) >= cleanThresholdFree {
		return
	}
	fs.cleaning = true
	fs.eng.After(0, fs.cleanStep)
}

func (fs *FS) cleanStep() {
	if len(fs.freeSegs) >= cleanThresholdFree*2 {
		fs.cleaning = false
		return
	}
	victim, best := int64(-1), int64(1)<<62
	for s := int64(0); s < fs.segments; s++ {
		if s == fs.curSeg {
			continue
		}
		full := fs.segFull(s)
		if !full {
			continue
		}
		if fs.liveCount[s] < best {
			victim, best = s, fs.liveCount[s]
		}
	}
	if victim < 0 {
		fs.cleaning = false
		return
	}
	fs.cleanRuns++
	// Collect live blocks, sorted by owner for sequential rewrites.
	type mig struct {
		owner int64
		off   int64
	}
	var live []mig
	for off := int64(0); off < fs.cfg.SegmentBlocks; off++ {
		if o := fs.owner[victim][off]; o >= 0 {
			live = append(live, mig{owner: o, off: off})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].owner < live[j].owner })
	finish := func() {
		base := fs.mainBase + victim*fs.cfg.SegmentBlocks
		fs.dev.Trim(base, int(fs.cfg.SegmentBlocks))
		for i := range fs.owner[victim] {
			fs.owner[victim][i] = -1
		}
		fs.liveCount[victim] = 0
		fs.freeSegs = append(fs.freeSegs, victim)
		fs.eng.After(0, fs.cleanStep)
	}
	if len(live) == 0 {
		finish()
		return
	}
	remaining := len(live)
	for _, m := range live {
		m := m
		src := fs.mainBase + victim*fs.cfg.SegmentBlocks + m.off
		fs.dev.Read(src, 1, func(blockdev.ReadResult) {
			// Re-check liveness: the block may have been overwritten.
			fid := int(m.owner >> 32)
			fb := m.owner & 0xffffffff
			f, ok := fs.files[fid]
			if !ok || fb >= int64(len(f.blocks)) || f.blocks[fb] != src {
				remaining--
				if remaining == 0 {
					finish()
				}
				return
			}
			nb, err := fs.allocBlock(m.owner)
			if err != nil {
				remaining--
				if remaining == 0 {
					finish()
				}
				return
			}
			fs.invalidate(src)
			f.blocks[fb] = nb
			fs.dev.Write(nb, 1, nil, func(blockdev.WriteResult) {
				remaining--
				if remaining == 0 {
					finish()
				}
			})
		})
	}
}

func (fs *FS) segFull(s int64) bool {
	if s == fs.curSeg {
		return false
	}
	// A segment is collectible once it has been fully allocated at least
	// once: every slot was assigned (live or since invalidated). Track via
	// allocation cursor: any segment not free and not current is full.
	for _, fr := range fs.freeSegs {
		if fr == s {
			return false
		}
	}
	return true
}

// FsckReport summarizes a consistency check.
type FsckReport struct {
	Files         int
	LiveBlocks    int64
	SegmentsInUse int64
	Errors        []string
}

// Fsck cross-checks the file block maps against the segment ownership
// tables: every live file block must be owned by exactly the segment slot
// it points at, and live counts must agree.
func (fs *FS) Fsck() FsckReport {
	rep := FsckReport{Files: len(fs.files)}
	ownedLive := make([]int64, fs.segments)
	for id, f := range fs.files {
		for fb, dev := range f.blocks {
			if dev < 0 {
				continue
			}
			rep.LiveBlocks++
			if dev < fs.mainBase {
				rep.Errors = append(rep.Errors,
					fmt.Sprintf("file %d block %d maps into metadata region", id, fb))
				continue
			}
			rel := dev - fs.mainBase
			seg := rel / fs.cfg.SegmentBlocks
			off := rel % fs.cfg.SegmentBlocks
			want := int64(id)<<32 | int64(fb)
			if fs.owner[seg][off] != want {
				rep.Errors = append(rep.Errors,
					fmt.Sprintf("file %d block %d: segment %d slot %d owner mismatch", id, fb, seg, off))
				continue
			}
			ownedLive[seg]++
		}
	}
	for s := int64(0); s < fs.segments; s++ {
		if ownedLive[s] > 0 {
			rep.SegmentsInUse++
		}
		if fs.liveCount[s] != ownedLive[s] {
			rep.Errors = append(rep.Errors,
				fmt.Sprintf("segment %d live count %d != owned %d", s, fs.liveCount[s], ownedLive[s]))
		}
	}
	return rep
}
