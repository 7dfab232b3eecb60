package gateway

import (
	"context"
	"sync"
	"time"
)

// attemptCtx is one attempt's context: the request's, under the attempt's
// deadline, the earlier of the request's and AttemptTimeout from the
// attempt's start. Deadline reports it at once. The context.WithDeadline
// child that enforces it — a timer, and a link that cancels the attempt
// with the request — is made only when something first waits on the
// attempt: Done, Err or AfterFunc. A node that answers while its caller
// only reads Deadline, as the gateway's relay does on its fast path, costs
// the attempt neither, and never calls the request's Done.
//
// AfterFunc is a method, so context.AfterFunc, WithCancel and WithTimeout
// on an attempt attach to its child without a goroutine. Value is the
// request's, and so is context.Cause: an attempt that ran out of its own
// time reports DeadlineExceeded through Err alone.
type attemptCtx struct {
	context.Context // the request's
	deadline        time.Time

	mu     sync.Mutex
	waited context.Context // the WithDeadline child, once made
	cancel context.CancelFunc
	ended  bool
}

func newAttemptCtx(parent context.Context, timeout time.Duration) *attemptCtx {
	d := time.Now().Add(timeout)
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	return &attemptCtx{Context: parent, deadline: d}
}

func (a *attemptCtx) Deadline() (time.Time, bool) { return a.deadline, true }

func (a *attemptCtx) Done() <-chan struct{} { return a.wait().Done() }

func (a *attemptCtx) Err() error { return a.wait().Err() }

// AfterFunc is context.AfterFunc on the attempt's child.
func (a *attemptCtx) AfterFunc(f func()) (stop func() bool) {
	return context.AfterFunc(a.wait(), f)
}

// wait returns the attempt's child, making it on the first call. A child
// made after the attempt ended is cancelled at once, as a WithTimeout's
// context is once its cancel ran.
func (a *attemptCtx) wait() context.Context {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.waited == nil {
		a.waited, a.cancel = context.WithDeadline(a.Context, a.deadline)
		if a.ended {
			a.cancel()
		}
	}
	return a.waited
}

// end releases the attempt: its child's timer and link, if it was made.
func (a *attemptCtx) end() {
	a.mu.Lock()
	a.ended = true
	cancel := a.cancel
	a.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
