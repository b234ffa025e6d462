// Package fault is the deterministic fault-injection subsystem: a
// declarative Spec of failure rules compiles into a Plan of per-device
// Injectors that the NVMe driver queue consults at each command delivery.
// Because injection sits between the driver and the device, every array
// stack in this repository (BIZA, RAIZN, dm-zap compositions, mdraid)
// sees the same faults through the same interface.
//
// Determinism: all randomness derives from sim.DeriveSeed keyed by rule
// index and device — never by wall clock or execution order — and the
// simulated command stream itself is deterministic, so a fault schedule
// reproduces bit-for-bit from its seed at any test -parallel level.
//
// What can fail:
//
//   - Transient: a matching command fails with storerr.ErrTransient at a
//     given probability; the driver queue retries with bounded backoff.
//   - Latency: matching commands are delivered late by a fixed extra
//     delay (a slow die, a busy channel, a firmware hiccup).
//   - Unreadable: reads overlapping a block range fail permanently with
//     storerr.ErrUnreadable (a latent sector error); the array layer
//     reconstructs from parity.
//   - DeviceDeath: from a trigger time or op count onward, every command
//     fails with storerr.ErrDeviceDead; the array flips the member to
//     degraded mode and (optionally) rebuilds onto a spare.
//   - PowerLoss: at a virtual time the whole platform loses power —
//     uncommitted ZRWA contents are truncated, in-flight commands are
//     dropped, and the host must run recovery. Handled by the platform
//     layer (internal/stack), not by per-device injectors.
package fault

import (
	"fmt"

	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
)

// Kind discriminates fault rules. Its names are obs.FaultKindName's.
type Kind uint8

// Fault kinds.
const (
	Transient Kind = iota
	Latency
	Unreadable
	DeviceDeath
	PowerLoss
)

func (k Kind) String() string { return obs.FaultKindName(uint8(k)) }

// Op selects which commands a rule affects.
type Op uint8

// Command classes. Append counts as Write.
const (
	AnyOp Op = iota
	Read
	Write
	Reset
)

func (o Op) String() string {
	switch o {
	case AnyOp:
		return "any"
	case Read:
		return "read"
	case Write:
		return "write"
	case Reset:
		return "reset"
	}
	return "unknown"
}

func (o Op) matches(got Op) bool { return o == AnyOp || o == got }

// obsOp maps a concrete command class to the obs span-op numbering for
// EvFault records.
func obsOp(o Op) obs.Op {
	switch o {
	case Read:
		return obs.OpRead
	case Reset:
		return obs.OpReset
	}
	return obs.OpWrite
}

// Rule is one declarative failure. Zero fields mean "unset"; which fields
// a kind requires is documented per field.
type Rule struct {
	Kind Kind

	// Dev is the member device the rule applies to; -1 applies it to
	// every member (each gets an independent random stream). Ignored by
	// PowerLoss, which is platform-wide.
	Dev int

	// Op scopes Transient and Latency rules to a command class.
	Op Op

	// From and Until bound the active window in virtual time for
	// Transient, Latency, and Unreadable rules. Until == 0 means
	// open-ended.
	From, Until sim.Time

	// At triggers DeviceDeath and PowerLoss at a virtual time.
	At sim.Time

	// AfterOps triggers DeviceDeath after the device has delivered this
	// many commands (alternative to At; whichever fires first wins).
	AfterOps uint64

	// Rate is the per-command injection probability of a Transient rule,
	// in [0, 1].
	Rate float64

	// MaxCount bounds how many times a Transient rule fires per device
	// (0 = unlimited).
	MaxCount int

	// Delay is the extra delivery latency of a Latency rule.
	Delay sim.Time

	// Zone, Lba, Blocks scope an Unreadable rule to a block range of one
	// zone on device Dev.
	Zone   int
	Lba    int64
	Blocks int
}

// Spec is a declarative fault plan: an ordered list of rules.
type Spec struct {
	Rules []Rule
}

// Injected errors. Each wraps the canonical storerr sentinel, so layers
// branch with errors.Is(err, storerr.ErrTransient) etc. without importing
// this package.
var (
	ErrInjectedTransient  = fmt.Errorf("fault: injected: %w", storerr.ErrTransient)
	ErrInjectedDead       = fmt.Errorf("fault: injected: %w", storerr.ErrDeviceDead)
	ErrInjectedUnreadable = fmt.Errorf("fault: injected: %w", storerr.ErrUnreadable)
)

func (r *Rule) check(members int) error {
	if r.Kind != PowerLoss {
		if r.Dev != -1 && (r.Dev < 0 || r.Dev >= members) {
			return fmt.Errorf("dev %d out of range (members=%d)", r.Dev, members)
		}
	}
	switch r.Kind {
	case Transient:
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("rate %v outside [0,1]", r.Rate)
		}
	case Latency:
		if r.Delay <= 0 {
			return fmt.Errorf("latency rule needs Delay > 0")
		}
	case Unreadable:
		if r.Blocks <= 0 || r.Lba < 0 || r.Zone < 0 {
			return fmt.Errorf("unreadable rule needs Zone >= 0, Lba >= 0, Blocks > 0")
		}
	case DeviceDeath:
		if r.At <= 0 && r.AfterOps == 0 {
			return fmt.Errorf("device-death rule needs At or AfterOps")
		}
	case PowerLoss:
		if r.At <= 0 {
			return fmt.Errorf("power-loss rule needs At > 0")
		}
	default:
		return fmt.Errorf("unknown kind %d", r.Kind)
	}
	return nil
}

// active reports whether the rule's [From, Until) window covers now.
func (r *Rule) active(now sim.Time) bool {
	return now >= r.From && (r.Until == 0 || now < r.Until)
}

// compiledRule is one rule instantiated for one device, carrying its
// private random stream and injection count.
type compiledRule struct {
	r      Rule
	rng    *sim.RNG
	thresh uint64 // Rate scaled to a 53-bit threshold (no float per op)
	count  int
}

// Plan is a compiled Spec: one Injector per member plus the platform-wide
// power-loss schedule.
type Plan struct {
	injs      []*Injector
	powerLoss []sim.Time
}

// Compile validates spec and instantiates it for a platform with the given
// member count. Every random stream is derived from seed, the rule index,
// and the device index via sim.DeriveSeed.
func Compile(spec *Spec, seed uint64, members int) (*Plan, error) {
	if members <= 0 {
		return nil, fmt.Errorf("fault: members must be positive")
	}
	p := &Plan{injs: make([]*Injector, members)}
	for i := range p.injs {
		p.injs[i] = &Injector{dev: i, trDev: i}
	}
	if spec == nil {
		return p, nil
	}
	for ri := range spec.Rules {
		r := spec.Rules[ri]
		if err := r.check(members); err != nil {
			return nil, fmt.Errorf("fault: rule %d (%s): %w", ri, r.Kind, err)
		}
		if r.Kind == PowerLoss {
			p.powerLoss = append(p.powerLoss, r.At)
			continue
		}
		first, last := r.Dev, r.Dev
		if r.Dev == -1 {
			first, last = 0, members-1
		}
		for d := first; d <= last; d++ {
			cr := &compiledRule{r: r}
			if r.Kind == Transient {
				cr.rng = sim.NewRNG(sim.DeriveSeed(seed, "fault",
					fmt.Sprintf("rule%d", ri), fmt.Sprintf("dev%d", d)))
				cr.thresh = uint64(r.Rate * float64(uint64(1)<<53))
			}
			p.injs[d].rules = append(p.injs[d].rules, cr)
		}
	}
	// Power-loss times fire in order regardless of rule order in the spec.
	for i := 1; i < len(p.powerLoss); i++ {
		for j := i; j > 0 && p.powerLoss[j] < p.powerLoss[j-1]; j-- {
			p.powerLoss[j], p.powerLoss[j-1] = p.powerLoss[j-1], p.powerLoss[j]
		}
	}
	return p, nil
}

// Injector returns the per-device injector, or nil when the plan is nil or
// dev is out of range (a nil *Injector is safe to consult).
func (p *Plan) Injector(dev int) *Injector {
	if p == nil || dev < 0 || dev >= len(p.injs) {
		return nil
	}
	return p.injs[dev]
}

// PowerLossTimes returns the platform-wide power-cut schedule, ascending.
func (p *Plan) PowerLossTimes() []sim.Time {
	if p == nil {
		return nil
	}
	return p.powerLoss
}

// Decision is the injector's verdict on one command delivery. Err, when
// non-nil, replaces the device's execution of the command; Delay postpones
// delivery (and the injector is consulted again at the delayed time only
// for error decisions, not for further delay, so delays do not compound).
type Decision struct {
	Err   error
	Delay sim.Time
}

// Injector holds one device's compiled rules and failure state. All
// methods are nil-receiver safe so uninjected queues pay only a nil check.
type Injector struct {
	dev      int
	rules    []*compiledRule
	dead     bool
	ops      uint64
	injected uint64

	tr    *obs.Trace
	trDev int
}

// SetTracer attaches an observability trace; dev labels this injector's
// device in EvFault records and the faults probe.
func (in *Injector) SetTracer(tr *obs.Trace, dev int) {
	if in != nil {
		in.tr = tr
		in.trDev = dev
	}
}

// Injected reports how many faults this injector has delivered.
func (in *Injector) Injected() uint64 {
	if in == nil {
		return 0
	}
	return in.injected
}

func (in *Injector) note(now sim.Time, k Kind, op Op, zone int, lba int64) {
	in.injected++
	if in.tr != nil {
		in.tr.Event(int64(now), obs.LayerNVMe, obs.EvFault, in.trDev, zone,
			int64(obsOp(op)), lba, uint8(k))
		in.tr.Counter(int64(now), obs.ProbeKey(obs.ProbeFaults, in.trDev, 0),
			int64(in.injected))
	}
}

// OnDeliver is consulted by the driver queue when a command reaches the
// device. op must be a concrete class (Read, Write, or Reset); zone and
// lba locate the command (lba may be -1 for appends and resets).
//
// A dead device answers everything with ErrInjectedDead. Otherwise rules
// apply in spec order; the first error wins and latency delays accumulate.
func (in *Injector) OnDeliver(now sim.Time, op Op, zone int, lba int64, nblocks int) Decision {
	if in == nil {
		return Decision{}
	}
	in.ops++
	if in.dead {
		return Decision{Err: ErrInjectedDead}
	}
	var d Decision
	for _, cr := range in.rules {
		r := &cr.r
		switch r.Kind {
		case DeviceDeath:
			if (r.At > 0 && now >= r.At) || (r.AfterOps > 0 && in.ops > r.AfterOps) {
				in.dead = true
				in.note(now, DeviceDeath, op, zone, lba)
				return Decision{Err: ErrInjectedDead}
			}
		case Unreadable:
			if op != Read || zone != r.Zone || !r.active(now) || lba < 0 {
				continue
			}
			if lba < r.Lba+int64(r.Blocks) && lba+int64(nblocks) > r.Lba {
				in.note(now, Unreadable, op, zone, lba)
				if d.Err == nil {
					d.Err = ErrInjectedUnreadable
				}
			}
		case Transient:
			if !r.Op.matches(op) || !r.active(now) {
				continue
			}
			if r.MaxCount > 0 && cr.count >= r.MaxCount {
				continue
			}
			// One draw per matching command keeps the stream aligned
			// with the (deterministic) command sequence.
			if cr.rng.Uint64()>>11 < cr.thresh {
				cr.count++
				in.note(now, Transient, op, zone, lba)
				if d.Err == nil {
					d.Err = ErrInjectedTransient
				}
			}
		case Latency:
			if !r.Op.matches(op) || !r.active(now) {
				continue
			}
			in.note(now, Latency, op, zone, lba)
			d.Delay += r.Delay
		}
	}
	return d
}

// Convenience constructors for common rules.

// KillDevice returns a rule that fails member dev permanently at time at.
func KillDevice(dev int, at sim.Time) Rule {
	return Rule{Kind: DeviceDeath, Dev: dev, At: at}
}

// PowerCut returns a rule that cuts platform power at time at.
func PowerCut(at sim.Time) Rule {
	return Rule{Kind: PowerLoss, At: at}
}

// TransientErrors returns a rule injecting retryable failures into member
// dev's op commands at the given probability (dev -1 = every member).
func TransientErrors(dev int, op Op, rate float64) Rule {
	return Rule{Kind: Transient, Dev: dev, Op: op, Rate: rate}
}

// BadBlocks returns a rule that makes blocks [lba, lba+blocks) of zone z
// on member dev permanently unreadable.
func BadBlocks(dev, zone int, lba int64, blocks int) Rule {
	return Rule{Kind: Unreadable, Dev: dev, Zone: zone, Lba: lba, Blocks: blocks}
}
