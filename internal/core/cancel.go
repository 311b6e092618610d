package core

import (
	"errors"
	"fmt"
)

// Every traversal entry point takes a context.Context first. When it is
// canceled or its deadline passes, the run stops at the next round
// boundary and returns a *CanceledError.

// ErrCanceled is the sentinel every cooperative cancellation matches:
// errors.Is(err, ErrCanceled) holds for any traversal stopped through its
// context, whether by explicit cancel or by deadline. The concrete error
// is always a *CanceledError carrying how far the run got.
var ErrCanceled = errors.New("core: traversal canceled")

// CanceledError reports a traversal that stopped cooperatively at a round
// boundary. The engine only observes cancellation between rounds (the
// simulated device, like a real one, cannot abandon a launched kernel), so
// the device is left exactly as a completed run leaves it: per-run buffers
// freed, loaded graphs intact, and the same graph immediately traversable
// again.
type CanceledError struct {
	// App is the Program's application label ("BFS", "SSSP", ...).
	App string
	// Rounds is how many relaxation rounds completed before the stop.
	// Zero means the context was already done before the first round.
	Rounds int
	// Cause is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: %s traversal canceled after %d round(s): %v",
		e.App, e.Rounds, e.Cause)
}

// Is matches the ErrCanceled sentinel.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the context cause, so errors.Is also matches
// context.Canceled / context.DeadlineExceeded.
func (e *CanceledError) Unwrap() error { return e.Cause }
