// Package kvstore implements a small LSM-tree key-value store in the
// RocksDB mold (§5.3's second application): write-ahead log, in-memory
// memtable, sorted-run SSTable files flushed to a log-structured
// filesystem, and leveled compaction. Its I/O profile — sequential SSTable
// and WAL writes plus compaction rewrites — is what db_bench exercises on
// the paper's F2FS + AFA stack.
package kvstore

import (
	"errors"
	"fmt"
	"sort"

	"biza/internal/lsfs"
	"biza/internal/sim"
)

// Config tunes the store.
type Config struct {
	// MemtableBytes triggers a flush when the memtable reaches this size.
	MemtableBytes int64
}

// DefaultConfig returns sizes suitable for simulation scale.
func DefaultConfig() Config {
	return Config{MemtableBytes: 256 << 10}
}

// l0Files triggers compaction into L1 when level 0 holds more tables.
const l0Files = 4

type entry struct {
	key   string
	value []byte
}

type sstable struct {
	id      int
	fileID  int
	entries []entry // sorted by key; values retained for correctness
	blocks  int64
}

func (s *sstable) max() string { return s.entries[len(s.entries)-1].key }

// DB is the store instance.
type DB struct {
	cfg        Config
	fs         *lsfs.FS
	eng        *sim.Engine
	blockBytes int64 // SSTable block size: the filesystem's block

	mem      map[string][]byte
	memBytes int64

	walID     int
	walBlocks int64

	levels  [][]*sstable // levels[0] newest-first; levels[1] sorted runs
	nextSST int

	compacting bool

	puts, flushes, compactions   uint64
	bytesFlushed, bytesCompacted uint64
}

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("kvstore: key not found")

// Open creates a store on the filesystem.
func Open(eng *sim.Engine, fs *lsfs.FS, cfg Config) (*DB, error) {
	if cfg.MemtableBytes < 4096 {
		return nil, fmt.Errorf("kvstore: bad config %+v", cfg)
	}
	walID, err := fs.Create("WAL")
	if err != nil {
		return nil, err
	}
	return &DB{
		cfg:        cfg,
		fs:         fs,
		eng:        eng,
		blockBytes: int64(fs.BlockSize()),
		mem:        make(map[string][]byte),
		walID:      walID,
		levels:     make([][]*sstable, 2),
	}, nil
}

// Stats reports operation and flush/compaction counters.
func (db *DB) Stats() (puts, flushes, compactions uint64) {
	return db.puts, db.flushes, db.compactions
}

// WriteAmpBytes reports flush and compaction volume.
func (db *DB) WriteAmpBytes() (flushed, compacted uint64) {
	return db.bytesFlushed, db.bytesCompacted
}

// Put stores a key-value pair; done fires after the WAL write is durable.
func (db *DB) Put(key string, value []byte, done func(error)) {
	db.puts++
	db.mem[key] = append([]byte(nil), value...)
	db.memBytes += int64(len(key) + len(value))
	// WAL append: one block per record (small records share a block in
	// reality; one block is the conservative crash-consistency cost).
	wb := db.walBlocks
	db.walBlocks++
	db.fs.WriteFile(db.walID, wb, 1, func(err error) {
		if db.memBytes >= db.cfg.MemtableBytes {
			db.flush()
		}
		if done != nil {
			done(err)
		}
	})
}

// Seek positions at the first key >= key and returns it (fillseekseq's
// operation), reading one index block.
func (db *DB) Seek(key string, done func(string, []byte, error)) {
	// Best candidate across memtable and tables.
	bestKey := ""
	var bestVal []byte
	consider := func(k string, v []byte) {
		if k < key {
			return
		}
		if bestKey == "" || k < bestKey {
			bestKey, bestVal = k, v
		}
	}
	for k, v := range db.mem {
		consider(k, v)
	}
	var readTables []*sstable
	for _, lvl := range db.levels {
		for _, t := range lvl {
			if len(t.entries) == 0 || t.max() < key {
				continue
			}
			i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].key >= key })
			if i < len(t.entries) {
				consider(t.entries[i].key, t.entries[i].value)
				readTables = append(readTables, t)
			}
		}
	}
	if bestKey == "" {
		db.eng.After(sim.Microsecond, func() { done("", nil, ErrNotFound) })
		return
	}
	if len(readTables) == 0 {
		db.eng.After(sim.Microsecond, func() { done(bestKey, bestVal, nil) })
		return
	}
	remaining := len(readTables)
	for _, t := range readTables {
		db.fs.ReadFile(t.fileID, 0, 1, func(error) {
			remaining--
			if remaining == 0 {
				done(bestKey, bestVal, nil)
			}
		})
	}
}

// flush writes the memtable as a new L0 SSTable and truncates the WAL.
func (db *DB) flush() {
	if len(db.mem) == 0 {
		return
	}
	db.flushes++
	entries := make([]entry, 0, len(db.mem))
	var bytes int64
	for k, v := range db.mem {
		entries = append(entries, entry{key: k, value: v})
		bytes += int64(len(k) + len(v))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	db.mem = make(map[string][]byte)
	db.memBytes = 0
	t := db.writeTable(entries, bytes)
	db.levels[0] = append([]*sstable{t}, db.levels[0]...)
	// WAL truncation: delete and recreate.
	db.fs.Delete(db.walID)
	id, err := db.fs.Create(fmt.Sprintf("WAL-%d", db.nextSST))
	if err == nil {
		db.walID = id
		db.walBlocks = 0
	}
	if len(db.levels[0]) > l0Files {
		db.compact()
	}
}

// writeTable persists a sorted run as an SSTable file.
func (db *DB) writeTable(entries []entry, bytes int64) *sstable {
	db.nextSST++
	blocks := (bytes + db.blockBytes - 1) / db.blockBytes
	if blocks < 1 {
		blocks = 1
	}
	fileID, err := db.fs.Create(fmt.Sprintf("sst-%06d", db.nextSST))
	if err != nil {
		panic(fmt.Sprintf("kvstore: create sstable: %v", err))
	}
	db.fs.WriteFile(fileID, 0, int(blocks), nil)
	db.bytesFlushed += uint64(blocks * db.blockBytes)
	return &sstable{id: db.nextSST, fileID: fileID, entries: entries, blocks: blocks}
}

// compact merges all of L0 and L1 into a fresh L1 run: reads every input
// block, writes the merged output, deletes the inputs — the classic LSM
// write amplification.
func (db *DB) compact() {
	if db.compacting {
		return
	}
	db.compacting = true
	db.compactions++
	inputs := append(append([]*sstable{}, db.levels[0]...), db.levels[1]...)
	// Merge newest-first so fresher values win.
	merged := make(map[string][]byte)
	for i := len(inputs) - 1; i >= 0; i-- {
		for _, e := range inputs[i].entries {
			merged[e.key] = e.value
		}
	}
	entries := make([]entry, 0, len(merged))
	var bytes int64
	for k, v := range merged {
		entries = append(entries, entry{key: k, value: v})
		bytes += int64(len(k) + len(v))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	// Read all input blocks (compaction read traffic), then write output.
	remaining := 0
	finishReads := func() {
		remaining--
		if remaining > 0 {
			return
		}
		out := db.writeTable(entries, bytes)
		db.bytesCompacted += uint64(out.blocks * db.blockBytes)
		for _, in := range inputs {
			db.fs.Delete(in.fileID)
		}
		db.levels[0] = nil
		db.levels[1] = []*sstable{out}
		db.compacting = false
	}
	remaining = len(inputs)
	if remaining == 0 {
		db.compacting = false
		return
	}
	for _, in := range inputs {
		in := in
		db.fs.ReadFile(in.fileID, 0, int(in.blocks), func(error) { finishReads() })
	}
}
