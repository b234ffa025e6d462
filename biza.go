// Package biza is a research-grade reimplementation of BIZA (SOSP '24): a
// self-governing block-interface all-flash array over ZNS SSDs, together
// with the baselines the paper evaluates against (RAIZN, dm-zap, mdraid,
// conventional SSDs) on a deterministic discrete-event-simulated storage
// substrate.
//
// Everything runs in virtual time: an Array owns a simulation engine, and
// asynchronous operations complete as the engine runs. The synchronous
// helpers (WriteSync, ReadSync) drive the engine for you:
//
//	arr, _ := biza.New(biza.Options{})
//	if err := arr.WriteSync(0, 8, payload); err != nil { ... }
//	data, _ := arr.ReadSync(0, 8)
//	fmt.Println(arr.WriteAmp())
//
// The internal packages implement the paper's full system inventory — the
// ZNS SSD simulator with ZRWA and hidden channel mappings, the sliding
// window scheduler, the ghost-cache zone-group selector, the
// guess-and-verify channel detector, host GC with BUSY-channel avoidance,
// OOB crash recovery — plus every baseline and the complete §5 experiment
// harness (see internal/bench and cmd/bizabench).
package biza

import (
	"biza/internal/blockdev"
	"biza/internal/core"
	"biza/internal/fault"
	"biza/internal/ftl"
	"biza/internal/kvstore"
	"biza/internal/lsfs"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// Kind selects a platform implementation.
type Kind = stack.Kind

// Platform kinds.
const (
	// BIZA is the paper's engine with all mechanisms enabled.
	BIZA = stack.KindBIZA
	// BIZANoSelector disables the §4.2 zone group selector (ablation).
	BIZANoSelector = stack.KindBIZANoSel
	// BIZANoAvoid disables the §4.3 GC avoidance (ablation).
	BIZANoAvoid = stack.KindBIZANoAvoid
	// DmzapRAIZN stacks the dm-zap adapter on the RAIZN array.
	DmzapRAIZN = stack.KindDmzapRAIZN
	// MdraidDmzap runs mdraid over per-SSD dm-zap adapters.
	MdraidDmzap = stack.KindMdraidDmzap
	// MdraidConvSSD runs mdraid over conventional (FTL) SSDs.
	MdraidConvSSD = stack.KindMdraidConvSSD
	// RAIZN exposes the raw zoned array through a sequential-only shim.
	RAIZN = stack.KindRAIZN
)

// Options configures an Array.
type Options struct {
	// Kind selects the platform; zero value builds BIZA.
	Kind Kind
	// Members is the SSD count (default 4, the paper's RAID 5 testbed).
	Members int
	// ZNS overrides the member geometry; zero value uses a scaled ZN540.
	ZNS zns.Config
	// FTL overrides conventional-SSD geometry for MdraidConvSSD.
	FTL ftl.Config
	// Engine overrides the BIZA engine configuration.
	Engine *core.Config
	// StoreData retains payloads for read-back. The simulated media is then
	// held in host memory: what is currently programmed, in 256 KiB extents
	// that a zone reset or an erase-block erase hands to the next zone or
	// erase block to fill.
	StoreData bool
	// Seed makes every stochastic element reproducible.
	Seed uint64
	// Faults declares a deterministic fault-injection plan, compiled from
	// Seed and interposed on every member driver queue. See FaultSpec.
	Faults *FaultSpec
	// AutoReplace hot-swaps a fresh spare as soon as a member is declared
	// dead (BIZA kinds only).
	AutoReplace bool
}

// FaultSpec declares a deterministic fault-injection plan: an ordered list
// of rules (transient errors, latency spikes, unreadable blocks, device
// death, power loss) whose randomness derives entirely from Options.Seed.
type FaultSpec = fault.Spec

// FaultRule is one declarative failure rule of a FaultSpec.
type FaultRule = fault.Rule

// FaultKind discriminates fault rules.
type FaultKind = fault.Kind

// Fault kinds.
const (
	FaultTransient   = fault.Transient
	FaultLatency     = fault.Latency
	FaultUnreadable  = fault.Unreadable
	FaultDeviceDeath = fault.DeviceDeath
	FaultPowerLoss   = fault.PowerLoss
)

// FaultOp scopes a fault rule to a command class.
type FaultOp = fault.Op

// Fault command classes (appends count as writes).
const (
	FaultAnyOp = fault.AnyOp
	FaultRead  = fault.Read
	FaultWrite = fault.Write
	FaultReset = fault.Reset
)

// KillDevice returns a rule that kills member dev at virtual time at (ns).
func KillDevice(dev int, at int64) FaultRule { return fault.KillDevice(dev, sim.Time(at)) }

// PowerCut returns a rule that cuts platform power at virtual time at
// (ns); the stack crashes and recovers automatically.
func PowerCut(at int64) FaultRule { return fault.PowerCut(sim.Time(at)) }

// TransientErrors returns a rule failing a fraction rate of dev's
// commands of class op with a retryable error (dev -1 = all members).
func TransientErrors(dev int, op FaultOp, rate float64) FaultRule {
	return fault.TransientErrors(dev, op, rate)
}

// BadBlocks returns a rule making a block range of one zone permanently
// unreadable; the array serves those reads via parity reconstruction.
func BadBlocks(dev, zone int, lba int64, blocks int) FaultRule {
	return fault.BadBlocks(dev, zone, lba, blocks)
}

// MemberState is the health of one array member.
type MemberState = core.MemberState

// Member states.
const (
	MemberHealthy    = core.MemberHealthy
	MemberDegraded   = core.MemberDegraded
	MemberRebuilding = core.MemberRebuilding
)

// WriteAmp re-exports the endurance accounting type.
type WriteAmp = metrics.WriteAmp

// Array is a block-interface all-flash array in a private simulation.
type Array struct {
	p *stack.Platform
}

// New builds an array.
func New(opts Options) (*Array, error) {
	kind := opts.Kind
	if kind == "" {
		kind = BIZA
	}
	sopts := stack.Options{
		Members:     opts.Members,
		ZNS:         opts.ZNS,
		FTL:         opts.FTL,
		Seed:        opts.Seed,
		BIZAConfig:  opts.Engine,
		Faults:      opts.Faults,
		AutoReplace: opts.AutoReplace,
	}
	if opts.StoreData {
		if sopts.ZNS.NumZones == 0 {
			sopts.ZNS = stack.BenchZNS(128)
		}
		sopts.ZNS.StoreData = true
		if sopts.FTL.FlashBlocks == 0 {
			sopts.FTL = stack.BenchFTL(2048)
		}
		sopts.FTL.StoreData = true
	}
	p, err := stack.New(kind, sopts)
	if err != nil {
		return nil, err
	}
	return &Array{p: p}, nil
}

// Kind reports the platform kind.
func (a *Array) Kind() Kind { return a.p.Kind }

// Blocks reports user capacity in 4 KiB blocks, the logical block size
// of every Kind.
func (a *Array) Blocks() int64 { return a.p.Dev.Blocks() }

// Run drains all pending simulation events.
func (a *Array) Run() { a.p.Eng.Run() }

// RunFor advances virtual time by d nanoseconds.
func (a *Array) RunFor(d int64) { a.p.Eng.RunUntil(a.p.Eng.Now() + d) }

// Now reports the current virtual time in nanoseconds.
func (a *Array) Now() int64 { return a.p.Eng.Now() }

// ErrIncomplete reports an operation that did not finish when the event
// queue drained (internal deadlock — please report).
var ErrIncomplete = blockdev.ErrIncomplete

// ErrCrashed reports I/O submitted between Crash and a successful
// Recover.
var ErrCrashed = storerr.ErrCrashed

// WriteSync writes nblocks at lba and drives the simulation until the
// write completes. data may be nil (traffic without payload) or hold
// nblocks*4096 bytes: every Kind's logical block is 4 KiB.
func (a *Array) WriteSync(lba int64, nblocks int, data []byte) error {
	if a.p.Crashed() {
		return ErrCrashed
	}
	return blockdev.WriteSync(a.p.Eng, a.p.Dev, lba, nblocks, data).Err
}

// ReadSync reads nblocks at lba, driving the simulation to completion.
// The returned payload is nil unless the array stores data.
func (a *Array) ReadSync(lba int64, nblocks int) ([]byte, error) {
	if a.p.Crashed() {
		return nil, ErrCrashed
	}
	r := blockdev.ReadSync(a.p.Eng, a.p.Dev, lba, nblocks)
	return r.Data, r.Err
}

// Flush commits device write buffers (ZRWA / caches) so endurance
// counters reflect every acknowledged byte.
func (a *Array) Flush() { a.p.Flush() }

// WriteAmp reports flash-level write amplification: user bytes versus
// bytes physically programmed on the member devices.
func (a *Array) WriteAmp() WriteAmp { return a.p.FlashWriteAmp() }

// AbsorbedBytes reports overwrites absorbed in device write buffers
// (ZRWA) without reaching flash.
func (a *Array) AbsorbedBytes() uint64 { return a.p.AbsorbedBytes() }

// Health reports the state of every member (BIZA kinds only; nil
// otherwise). A dead or failed member reads as degraded while its chunks
// are served via parity reconstruction; rebuilding members are mid
// ReplaceDevicePaced.
func (a *Array) Health() []MemberState {
	if a.p.BIZA == nil {
		return nil
	}
	return a.p.BIZA.Health()
}

// Reconstructions reports how many chunk reads were served by parity
// reconstruction instead of the owning member (BIZA kinds only).
func (a *Array) Reconstructions() uint64 {
	if a.p.BIZA == nil {
		return 0
	}
	return a.p.BIZA.Reconstructions()
}

// NewFS formats a log-structured (F2FS-like) filesystem on the array.
func (a *Array) NewFS() (*lsfs.FS, error) {
	return lsfs.New(a.p.Eng, a.p.Dev, lsfs.DefaultConfig())
}

// OpenKV opens an LSM key-value store on a filesystem from NewFS.
func (a *Array) OpenKV(fs *lsfs.FS) (*kvstore.DB, error) {
	return kvstore.Open(a.p.Eng, fs, kvstore.DefaultConfig())
}

// Engine exposes the simulation engine for advanced event-driven callers.
func (a *Array) Engine() *sim.Engine { return a.p.Eng }
