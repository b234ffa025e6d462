// Package blockdev defines the asynchronous block-device interface shared
// by every layer in this repository that exposes block semantics: the
// conventional-SSD simulator, the dm-zap adapter, the mdraid and BIZA array
// engines, and the platform compositions benchmarked against each other.
package blockdev

import (
	"errors"
	"fmt"

	"biza/internal/buf"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/storerr"
)

// WriteResult is the completion of a Write or Flush.
type WriteResult struct {
	Err     error
	Latency sim.Time
}

// ReadResult is the completion of a Read.
type ReadResult struct {
	Err     error
	Data    []byte // nil when the underlying store does not retain payloads
	Latency sim.Time
}

// Device is an asynchronous block device in virtual time. Implementations
// are single-goroutine (simulation-driven); completions fire as events.
type Device interface {
	// BlockSize reports the logical block size in bytes.
	BlockSize() int
	// Blocks reports the usable capacity in blocks.
	Blocks() int64
	// Write stores nblocks starting at lba. data may be nil (performance
	// experiments) or hold nblocks*BlockSize bytes.
	Write(lba int64, nblocks int, data []byte, done func(WriteResult))
	// Read fetches nblocks starting at lba.
	Read(lba int64, nblocks int, done func(ReadResult))
	// Trim declares [lba, lba+nblocks) dead so lower layers can drop it.
	Trim(lba int64, nblocks int)
}

// BufWriter is optionally implemented by engines whose write path takes
// ownership of refcounted pooled payloads (internal/buf) instead of
// copying caller bytes. Workload generators that find this interface
// draw payload buffers from Pool and submit them with WriteBuf, making
// the data path zero-copy end to end.
type BufWriter interface {
	// Pool returns the engine's unified buffer pool. Payloads passed to
	// WriteBuf must be drawn from it.
	Pool() *buf.Pool
	// WriteBuf is Write for a refcounted payload of nblocks*BlockSize
	// bytes: the call transfers one reference, which the engine releases
	// once it — and every layer below it — is done with the bytes. The
	// caller must not mutate the payload after submission unless it
	// Retained its own reference and knows the lower layers have quiesced.
	WriteBuf(lba int64, nblocks int, b *buf.Buf, done func(WriteResult))
}

// WriteAmper is implemented by devices and engines that can report
// endurance accounting.
type WriteAmper interface {
	WriteAmp() metrics.WriteAmp
}

// DataStorer is optionally implemented by devices and zoned backends that
// know whether their reads return payloads. Performance-mode stacks
// (StoreData=false on the flash model) report false, letting upper layers
// skip allocating zero-filled read buffers on the hot path.
type DataStorer interface {
	StoresData() bool
}

// StoresData reports whether d (a Device or a zoneapi.Backend) retains
// payloads; those that do not implement DataStorer are assumed to (the
// conservative default — callers then allocate read buffers as before).
func StoresData(d any) bool {
	if s, ok := d.(DataStorer); ok {
		return s.StoresData()
	}
	return true
}

// Common errors shared by block-layer implementations. Both wrap the
// canonical sentinels in internal/storerr, so errors.Is matches either
// identity (see that package).
var (
	// ErrOutOfRange reports I/O beyond device capacity.
	ErrOutOfRange = fmt.Errorf("blockdev: address out of range: %w", storerr.ErrOutOfRange)
	// ErrBadArgument reports malformed request parameters.
	ErrBadArgument = fmt.Errorf("blockdev: bad argument: %w", storerr.ErrBadArgument)
	// ErrIncomplete reports a WriteSync or ReadSync whose request was still
	// outstanding when the engine ran out of events: a hang in the stack
	// below (or an array that crashed mid-flight).
	ErrIncomplete = errors.New("blockdev: operation did not complete")
)
