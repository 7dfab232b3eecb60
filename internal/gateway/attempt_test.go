package gateway

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/testutil"
)

// attempt_test.go: the attempt context's two halves. An attempt whose node
// only reads its deadline makes no timer and never touches the request's
// Done; one whose node waits sees the deadline, the request's cancel and
// AfterFunc exactly as under context.WithTimeout.

// doneCounting is a request context that counts its Done calls.
type doneCounting struct {
	context.Context
	dones atomic.Int32
}

func (c *doneCounting) Done() <-chan struct{} {
	c.dones.Add(1)
	return c.Context.Done()
}

// attemptOn runs one attempt with timeout under parent and returns the
// context the node saw.
func attemptOn(t *testing.T, parent context.Context, timeout time.Duration, do func(ctx context.Context) error) (*attemptCtx, error) {
	t.Helper()
	g := &Gateway{cfg: Config{AttemptTimeout: timeout}}
	var seen *attemptCtx
	err := g.attempt(parent, &shard{id: "a"}, func(ctx context.Context, _ Node, _ bool) error {
		seen = ctx.(*attemptCtx)
		return do(ctx)
	}, false)
	return seen, err
}

// A node that only reads Deadline costs the attempt one object, the
// attempt context, and no timer: the child that holds one is never made,
// and the request's Done is never called.
func TestAttemptUnwaitedMakesNoTimer(t *testing.T) {
	parentCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parent := &doneCounting{Context: parentCtx}
	answer := func(ctx context.Context) error {
		if d, ok := ctx.Deadline(); !ok || d.IsZero() {
			t.Fatal("an attempt must report a deadline")
		}
		return nil
	}
	seen, err := attemptOn(t, parent, time.Second, answer)
	if err != nil {
		t.Fatal(err)
	}
	if seen.waited != nil {
		t.Fatal("an attempt nobody waited on made its WithDeadline child")
	}
	if n := parent.dones.Load(); n != 0 {
		t.Fatalf("the request's Done was called %d times", n)
	}

	if testutil.Race {
		return // the race detector allocates
	}
	g := &Gateway{cfg: Config{AttemptTimeout: time.Second}}
	s := &shard{id: "a"}
	do := func(ctx context.Context, _ Node, _ bool) error { return answer(ctx) }
	if allocs := testing.AllocsPerRun(200, func() { g.attempt(parent, s, do, false) }); allocs > 1 {
		t.Fatalf("%v objects per unwaited attempt, want 1 (a WithTimeout is 4 and a timer)", allocs)
	}
}

// The attempt's deadline is the earlier of the request's and the attempt
// timeout's.
func TestAttemptDeadlineIsTheEarlier(t *testing.T) {
	far, cancelFar := context.WithTimeout(context.Background(), time.Hour)
	defer cancelFar()
	near, cancelNear := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelNear()
	for _, tc := range []struct {
		name   string
		parent context.Context
		want   func(start time.Time) time.Time
	}{
		{"no request deadline", context.Background(), func(start time.Time) time.Time { return start.Add(time.Second) }},
		{"later request deadline", far, func(start time.Time) time.Time { return start.Add(time.Second) }},
		{"earlier request deadline", near, func(time.Time) time.Time { d, _ := near.Deadline(); return d }},
	} {
		start := time.Now()
		var got time.Time
		if _, err := attemptOn(t, tc.parent, time.Second, func(ctx context.Context) error {
			got, _ = ctx.Deadline()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := tc.want(start)
		if d := got.Sub(want); d < 0 || d > 50*time.Millisecond {
			t.Errorf("%s: deadline %v, want %v", tc.name, got.Sub(start), want.Sub(start))
		}
	}
}

// A node that waits sees Done close at the attempt deadline with
// DeadlineExceeded, or at the request's cancel with Canceled; Err is nil
// until Done is closed.
func TestAttemptWaitEndsAtDeadlineOrCancel(t *testing.T) {
	const timeout = 40 * time.Millisecond
	waitOut := func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			t.Errorf("Err = %v before the attempt ended", err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("Done never closed")
		}
		return ctx.Err()
	}

	start := time.Now()
	_, err := attemptOn(t, context.Background(), timeout, waitOut)
	if el := time.Since(start); el < timeout || el > timeout+time.Second {
		t.Fatalf("Done closed after %v, want the %v attempt deadline", el, timeout)
	}
	if !errors.Is(err, context.DeadlineExceeded) || Classify(err) != ClassNodeDown {
		t.Fatalf("attempt deadline: err %v (class %v), want DeadlineExceeded as ClassNodeDown", err, Classify(err))
	}

	parent, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start = time.Now()
	_, err = attemptOn(t, parent, time.Hour, waitOut)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Done closed %v after the request's cancel", el)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("request cancel: err %v, want Canceled", err)
	}
}

// context.AfterFunc on an attempt reaches its AfterFunc method, so it
// starts no goroutine: the function runs on the request's cancel, and one
// stopped first — through context.AfterFunc's stop or the method's own —
// never runs.
func TestAttemptAfterFunc(t *testing.T) {
	var _ interface{ AfterFunc(func()) func() bool } = (*attemptCtx)(nil)
	parent, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{})
	var stoppedRan atomic.Bool
	_, err := attemptOn(t, parent, time.Hour, func(ctx context.Context) error {
		context.AfterFunc(ctx, func() { close(fired) })
		stops := []func() bool{
			context.AfterFunc(ctx, func() { stoppedRan.Store(true) }),
			ctx.(*attemptCtx).AfterFunc(func() { stoppedRan.Store(true) }),
		}
		for _, stop := range stops {
			if !stop() {
				t.Error("stop before the cancel reported the function already started")
			}
		}
		cancel()
		select {
		case <-fired:
		case <-time.After(2 * time.Second):
			t.Error("AfterFunc did not run on the request's cancel")
		}
		for _, stop := range stops {
			if stop() {
				t.Error("a second stop reported it stopped the function")
			}
		}
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want Canceled", err)
	}
	time.Sleep(10 * time.Millisecond)
	if stoppedRan.Load() {
		t.Fatal("a stopped AfterFunc ran")
	}
}

// Once the attempt has returned its context is cancelled, as a
// WithTimeout's is after its cancel: whether the child was made before or
// is made after, Err is Canceled and Done is closed.
func TestAttemptEndCancels(t *testing.T) {
	for _, waitFirst := range []bool{true, false} {
		seen, err := attemptOn(t, context.Background(), time.Hour, func(ctx context.Context) error {
			if waitFirst {
				_ = ctx.Done()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := seen.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("waited first %v: Err after the attempt = %v, want Canceled", waitFirst, err)
		}
		select {
		case <-seen.Done():
		default:
			t.Fatalf("waited first %v: Err is set but Done is open", waitFirst)
		}
	}
}
