// Package storerr defines the canonical typed sentinel errors shared by
// every storage layer in this repository: the ZNS device model, the NVMe
// driver queue, the block-device interface, the zoned-backend adapters, and
// the fault-injection subsystem. Layer-local sentinels (zns.ErrZoneFull,
// blockdev.ErrOutOfRange, ...) wrap these values with %w, so callers can
// branch with errors.Is against either identity without string matching —
// which is what the degraded-read path does to decide whether a failed
// device read is reconstructable from parity.
//
// storerr is a leaf package: it imports only the standard library, so any
// layer may depend on it without cycles.
package storerr

import "errors"

var (
	// ErrZoneFull reports a write to a full zone or beyond zone capacity.
	ErrZoneFull = errors.New("zone is full")

	// ErrWritePointer reports a sequential-write-rule violation: a write
	// that does not start at the zone's write pointer, or a ZRWA write
	// behind the committed (immutable) boundary.
	ErrWritePointer = errors.New("write pointer violation")

	// ErrWrongState reports a state-machine violation: a zone's (commit on
	// an empty zone, finish on an offline zone) or an array's (a second
	// crash, a recover of an array that is not crashed).
	ErrWrongState = errors.New("invalid zone state for command")

	// ErrZoneOffline reports access to a dead zone.
	ErrZoneOffline = errors.New("zone offline")

	// ErrTooManyOpen reports an open that would exceed the device's
	// max-open/active-zones resource limits.
	ErrTooManyOpen = errors.New("too many open zones")

	// ErrReadOnly reports a write to a read-only zone.
	ErrReadOnly = errors.New("zone read-only")

	// ErrOutOfRange reports I/O beyond device or zone bounds.
	ErrOutOfRange = errors.New("address out of range")

	// ErrBadArgument reports malformed request parameters.
	ErrBadArgument = errors.New("bad argument")

	// ErrDeviceDead reports a command sent to a device that has failed
	// whole (injected member death). Permanent: retries cannot help, and
	// the array layer reacts by flipping the member to degraded mode.
	ErrDeviceDead = errors.New("device dead")

	// ErrUnreadable reports a latent sector error: the addressed blocks
	// are lost, but the device is otherwise alive. Permanent for the
	// affected range; the array layer reconstructs from parity.
	ErrUnreadable = errors.New("media unreadable")

	// ErrTransient reports a retryable command failure (command timeout,
	// CRC hiccup). The driver queue retries these with bounded backoff.
	ErrTransient = errors.New("transient I/O error")

	// ErrCrashed reports an operation on an array whose power was cut;
	// call Recover first.
	ErrCrashed = errors.New("array crashed; recover first")

	// ErrNotFound reports a lookup of an object that does not exist: an
	// unknown volume name, a member index beyond the array.
	ErrNotFound = errors.New("not found")

	// ErrExists reports creation of an object whose name is already taken
	// (e.g. opening a volume twice).
	ErrExists = errors.New("already exists")

	// ErrNoSpace reports an allocation that exceeds remaining capacity
	// (opening a volume past the array's end).
	ErrNoSpace = errors.New("insufficient space")

	// ErrNotSupported reports an operation the platform kind cannot
	// perform (crash-recovery or rebuild on a non-BIZA stack).
	ErrNotSupported = errors.New("operation not supported")
)

// Reconstructable reports whether err is a permanent device-side failure
// that a redundant array should answer by parity reconstruction rather
// than surfacing: the member is dead, the blocks are lost, or the zone
// went offline. Transient errors are not included — the driver retries
// those — and logic errors (bad range, wrong state) indicate host bugs
// that reconstruction would only mask.
func Reconstructable(err error) bool {
	return errors.Is(err, ErrDeviceDead) ||
		errors.Is(err, ErrUnreadable) ||
		errors.Is(err, ErrZoneOffline)
}
