// Package zoneapi defines the zoned-storage interface shared by providers
// of ZNS semantics: a raw ZNS SSD behind the driver queue, or the RAIZN
// array engine, which exposes logical zones spanning its members. The
// dm-zap adapter consumes this interface, which is how the paper's two
// compositions (dmzap+RAIZN and mdraid+dmzap) share one adapter
// implementation.
package zoneapi

import (
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

// Backend is an asynchronous zoned block store with sequential-write zones.
type Backend interface {
	// Engine returns the simulation engine driving completions.
	Engine() *sim.Engine
	// BlockSize reports the logical block size in bytes.
	BlockSize() int
	// ZoneBlocks reports usable blocks per zone.
	ZoneBlocks() int64
	// Zones reports the zone count.
	Zones() int
	// MaxOpenZones reports how many zones may accept writes concurrently.
	MaxOpenZones() int
	// Write appends nblocks at lba of zone z; lba must equal the zone's
	// write pointer (sequential-write rule).
	Write(z int, lba int64, nblocks int, data []byte, tag zns.WriteTag, done func(zns.WriteResult))
	// Read fetches nblocks at lba of zone z.
	Read(z int, lba int64, nblocks int, done func(zns.ReadResult))
	// Reset erases zone z.
	Reset(z int, done func(error))
}

// SingleDevice adapts one ZNS SSD behind a driver queue to Backend. The
// queue should have ZoneOrdered set unless the caller serializes writes
// itself (dm-zap does: one in-flight write per zone).
type SingleDevice struct {
	Q *nvme.Queue
}

// Engine implements Backend.
func (s SingleDevice) Engine() *sim.Engine { return s.Q.Device().Engine() }

// BlockSize implements Backend.
func (s SingleDevice) BlockSize() int { return s.Q.Device().Config().BlockSize }

// ZoneBlocks implements Backend.
func (s SingleDevice) ZoneBlocks() int64 { return s.Q.Device().Config().ZoneBlocks }

// Zones implements Backend.
func (s SingleDevice) Zones() int { return s.Q.Device().Config().NumZones }

// MaxOpenZones implements Backend.
func (s SingleDevice) MaxOpenZones() int { return s.Q.Device().Config().MaxOpenZones }

// Write implements Backend.
func (s SingleDevice) Write(z int, lba int64, nblocks int, data []byte, tag zns.WriteTag, done func(zns.WriteResult)) {
	s.Q.Write(z, lba, nblocks, data, nil, tag, done)
}

// Read implements Backend.
func (s SingleDevice) Read(z int, lba int64, nblocks int, done func(zns.ReadResult)) {
	s.Q.ReadInto(z, lba, nblocks, nil, false, done)
}

// StoresData implements blockdev.DataStorer.
func (s SingleDevice) StoresData() bool { return s.Q.Device().Config().StoreData }

// Reset implements Backend.
func (s SingleDevice) Reset(z int, done func(error)) { s.Q.Reset(z, done) }
