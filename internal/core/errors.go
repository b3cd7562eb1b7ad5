package core

import (
	"errors"

	"hybridkv/internal/protocol"
)

// Sentinel errors for Req.Err: one Go error per operation outcome, so
// callers use errors.Is instead of switching on raw protocol.Status.
var (
	// ErrNotFound reports a Get/Incr on a missing key, or a CAS store
	// on one.
	ErrNotFound = errors.New("core: key not found")
	// ErrNotStored reports an Add on an existing key.
	ErrNotStored = errors.New("core: not stored")
	// ErrExists reports a CAS store with a stale token.
	ErrExists = errors.New("core: CAS token stale")
	// ErrBadValue reports Incr on a non-counter value.
	ErrBadValue = errors.New("core: value is not a counter")
	// ErrTooLarge reports a value over the server's item size limit.
	ErrTooLarge = errors.New("core: value too large")
	// ErrServer reports a generic server-side failure.
	ErrServer = errors.New("core: server error")
	// ErrDeadlineExceeded reports an operation that timed out (its deadline
	// or retry budget ran out before a response arrived).
	ErrDeadlineExceeded = errors.New("core: deadline exceeded")
	// ErrCanceled reports an operation abandoned by Cancel.
	ErrCanceled = errors.New("core: request canceled")
	// ErrRecovering reports a request rejected while the server rebuilds
	// its store from the SSD after a cold restart. WithRetry treats it as
	// retryable: guarded requests back off and retransmit instead of
	// completing with this error.
	ErrRecovering = errors.New("core: server recovering")
	// ErrBusy reports a request shed by the server's bounded-admission
	// layer: buffer memory or storage-queue depth was over the op class's
	// watermark. Retryable; the busy response's retry-after hint floors
	// the guard's next backoff.
	ErrBusy = errors.New("core: server busy")
	// ErrNoReplica reports a replicated write whose coordinator could not
	// complete the replication chain (peer replicas dead or partitioned
	// beyond the retry budget). Retryable: a later attempt — possibly
	// coordinated by another replica — may find the chain whole again. The
	// write may have landed on a subset of replicas; anti-entropy
	// reconverges them either way.
	ErrNoReplica = errors.New("core: replication chain incomplete")
	// ErrInFlight reports Err called before the operation completed.
	ErrInFlight = errors.New("core: request still in flight")
)

// statusErr maps a protocol status to its sentinel error (nil for the
// success statuses).
func statusErr(s protocol.Status) error {
	switch s {
	case protocol.StatusOK, protocol.StatusStored:
		return nil
	case protocol.StatusNotFound:
		return ErrNotFound
	case protocol.StatusNotStored:
		return ErrNotStored
	case protocol.StatusExists:
		return ErrExists
	case protocol.StatusBadValue:
		return ErrBadValue
	case protocol.StatusTooLarge:
		return ErrTooLarge
	case protocol.StatusRecovering:
		return ErrRecovering
	case protocol.StatusBusy:
		return ErrBusy
	case protocol.StatusNoReplica:
		return ErrNoReplica
	default:
		return ErrServer
	}
}

// The retryable classification used everywhere a rejection can trigger a
// retransmit — the progress engine's nudge path, the retry guard's backoff
// loop, and failover — lives in this one table so a new retryable status
// cannot be half-wired.

// RetryableStatus reports whether a response status is transient
// backpressure: the server refused the request but another attempt (after
// backoff, possibly on another replica) may succeed.
func RetryableStatus(s protocol.Status) bool {
	return s == protocol.StatusRecovering || s == protocol.StatusBusy ||
		s == protocol.StatusNoReplica
}

// Err returns the operation outcome as an error: nil on success,
// ErrCanceled / ErrDeadlineExceeded for local abandonment, ErrInFlight
// before completion, and the protocol status's sentinel otherwise. A
// guarded request whose budget ran out right after a retryable rejection
// surfaces that rejection's sentinel (ErrBusy, ErrRecovering) rather than
// the generic deadline error: the caller learns *why* the attempts failed.
func (r *Req) Err() error {
	switch {
	case !r.done:
		return ErrInFlight
	case r.how == canceled:
		return ErrCanceled
	case r.how == timedOut && r.rejected != protocol.StatusOK:
		return statusErr(r.rejected)
	case r.how == timedOut:
		return ErrDeadlineExceeded
	}
	return statusErr(r.Status)
}
