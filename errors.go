package raincore

import (
	"errors"
	"fmt"

	"repro/internal/rcerr"
)

// ErrRetryable is the class sentinel of the error taxonomy: every
// transient failure any Raincore layer can surface — ErrResharding,
// ErrSnapshotting, ErrEpochChanged, ErrReshardAborted, ErrTxnAborted —
// matches it under errors.Is. "Retryable" means the operation changed
// nothing and re-running it after the routing epoch settles is expected
// to succeed; the Cluster facade's methods absorb these internally, so a
// caller normally meets the class only when a RetryPolicy's attempt
// budget runs out.
//
// Permanent failures — ErrReshardInProgress (re-running would reshard
// twice), ErrNotHolder, context cancellation — do NOT match.
var ErrRetryable = rcerr.ErrRetryable

// IsRetryable reports whether err is a transient failure that can be
// retried as-is: it unwraps err and matches the ErrRetryable class.
func IsRetryable(err error) bool { return errors.Is(err, ErrRetryable) }

// Error is the uniform operation error of the Cluster facade: which
// operation failed, on which key (when the operation has one), and why.
// The cause is wrapped, so errors.Is/errors.As see through it — both
// errors.Is(err, raincore.ErrResharding) and raincore.IsRetryable(err)
// work on a returned *Error.
type Error struct {
	// Op names the facade operation: "get", "set", "delete", "lock",
	// "unlock", "txn", "snapshot", "grow", "shrink", "multicast",
	// "close".
	Op string
	// Key is the key or lock name the operation addressed; empty for
	// cluster-wide operations (snapshot, grow, shrink).
	Key string
	// Err is the underlying cause.
	Err error
}

// Error renders "raincore: <op> <key>: <cause>".
func (e *Error) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("raincore: %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("raincore: %s %q: %v", e.Op, e.Key, e.Err)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Retryable reports whether the underlying cause is transient — the
// machine-checkable half of the error contract. Equivalent to
// IsRetryable(e).
func (e *Error) Retryable() bool { return errors.Is(e.Err, ErrRetryable) }

// opError wraps a failure in *Error unless it already is one (retry
// layers wrap once, at the outermost facade call).
func opError(op, key string, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	return &Error{Op: op, Key: key, Err: err}
}
