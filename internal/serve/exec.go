package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"itask/internal/tensor"
)

// PanicError is a backend panic converted into a per-request error by the
// server's recover wrapper. It unwraps to ErrBackendPanic.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: backend panic: %v", e.Value)
}

func (e *PanicError) Unwrap() error { return ErrBackendPanic }

// execute runs one request end to end: it sheds the request if it was
// cancelled or expired while queued, otherwise invokes the backend under the
// watchdog and recover, records the outcome with the breaker, and delivers.
// The request executes alone, so a failure is its own: there is no batch-mate
// to blame and none to retry. It reports false when the watchdog abandoned
// the execution, which ends the worker.
func (w *worker) execute(p *pending) bool {
	s := w.s
	started := time.Now()
	switch {
	case p.cancelled.Load():
		s.shed(p, cShedCancelled, context.Canceled)
		return true
	case !p.deadline.IsZero() && started.After(p.deadline):
		s.shed(p, cShedExpired, ErrDeadlineExceeded)
		return true
	}

	payload, model, err := w.invoke(p, started)
	if err == errAbandoned {
		return false
	}
	s.recordExec(p.variant, p.task, err, time.Since(started))
	if err != nil {
		s.fail(p, err)
		return true
	}
	s.m.inc(cBatches)
	total := time.Since(p.enq)
	s.m.settle(cCompleted, p.row, model, total, p.degraded != "")
	s.deliver(p, Outcome{Res: Result{
		Payload:   payload,
		Model:     model,
		Tenant:    p.tenant,
		BatchSize: 1,
		Degraded:  p.degraded,
		Queued:    started.Sub(p.enq),
		Total:     total,
	}})
	return true
}

// shed terminates a request that was cancelled or expired while queued. If
// it held a half-open probe slot its breaker has seen no outcome for, the
// slot is returned: otherwise the breaker would stay half-open with probing
// set and no probe ever running, denying every future request forever.
func (s *Server) shed(p *pending, how counterIdx, err error) {
	s.m.settle(how, p.row, "", 0, false)
	if p.probeKey != "" {
		s.h.releaseProbe(p.probeKey)
		p.probeKey = ""
	}
	s.deliver(p, Outcome{Err: err})
}

// fail delivers a failed execution's error to its request, attributing it to
// the executed variant. A panic or hang is a health verdict on the variant —
// its cached weights are dropped, and the registry may roll the version back
// before any follower of p re-executes — and, since the request ran alone,
// proof that its content is poison.
func (s *Server) fail(p *pending, err error) {
	s.m.settle(cFailed, p.row, p.variant, 0, false)
	verdict := ""
	switch {
	case errors.Is(err, ErrBackendPanic):
		s.m.fault(cPanics, p.variant)
		verdict = UnhealthyPanic
	case errors.Is(err, ErrWatchdog):
		s.m.fault(cWatchdogs, p.variant)
		verdict = UnhealthyWatchdog
	}
	if verdict != "" {
		s.evictVariant(p.variant)
		s.variantUnhealthy(p.variant, p.task, verdict)
		if s.cache != nil && p.haveKey {
			// Mark the content in the negative cache so a hot poison frame
			// fails fast at admission instead of re-executing — and
			// re-panicking — on every arrival. The mark is scoped to this
			// request's tenant; other tenants' identical content re-proves
			// itself instead of inheriting the verdict. No-op unless
			// Config.NegativeTTL is set.
			s.cache.PutNegative(p.key, p.tenant, time.Now())
		}
	}
	s.deliver(p, Outcome{Err: err})
}

// deliver is the single terminal delivery point for an executed request: it
// fills the result cache when the outcome is cacheable, resolves the
// request's flight if it leads one (sharing success with its followers,
// re-admitting them on failure), and hands the outcome to the caller.
func (s *Server) deliver(p *pending, out Outcome) {
	if s.cache != nil && out.Err == nil && p.haveKey &&
		out.Res.Degraded == "" && out.Res.Model == p.key.Artifact {
		// Cacheable: a non-degraded result produced by exactly the routed
		// artifact version. Fallback-served results, and results a registry
		// rollback redirected to another version mid-flight, never enter
		// the task-specific key.
		s.cache.Put(p.key, out.Res.Payload, time.Now())
	}
	if p.flight != nil {
		s.finishFlight(p, out)
	}
	p.done <- out
}

// finishFlight resolves a leader's flight exactly once. Success is shared:
// every follower receives the leader's result flagged Coalesced. Failure is
// not: each follower is re-admitted through the full fresh path (route,
// breaker, enqueue) and earns its own outcome, so poison content fails only
// the request that carried it. A follower re-execution never joins another
// flight, bounding every request at two executions.
func (s *Server) finishFlight(p *pending, out Outcome) {
	followers := s.flights.resolve(p.key, p.flight)
	p.flight = nil
	if len(followers) == 0 {
		return
	}
	if out.Err != nil {
		for _, f := range followers {
			s.m.inc(cCoalescedRetried)
			s.resubmit(f)
		}
		return
	}
	now := time.Now()
	for _, f := range followers {
		res := out.Res
		res.Coalesced = true
		res.Queued = 0
		res.Total = now.Sub(f.enq)
		// Attribution follows the follower, not the leader: a coalesced
		// hit is the follower tenant's completion.
		res.Tenant = f.tenant
		s.m.settle(cCoalesced, f.row, "", res.Total, res.Degraded != "")
		f.done <- Outcome{Res: res}
	}
}

// maxAbandonedPerVariant caps how many watchdog-abandoned executions may
// still be running on one variant. At the cap, invoke fails new executions
// fast with ErrWatchdog instead of starting another, so a permanently hung
// variant cannot strand a worker goroutine per request or probe without
// bound (each fast failure still counts against the variant's breaker).
const maxAbandonedPerVariant = 4

// abandonedRun marks a worker's execution the watchdog has taken over.
const abandonedRun = -1

// errAbandoned is invoke's report that the watchdog took the execution
// over: the request is answered, and the worker ends.
var errAbandoned = errors.New("serve: execution abandoned by the watchdog")

// worker is one execution slot. It takes requests from the queue and runs
// each backend call on its own goroutine, under a watchdog timer it re-arms
// per execution. When the timer finds the execution overdue, the watchdog
// answers the request, starts a replacement worker in the slot and leaves
// this goroutine to finish the hung call, discard its result and exit.
type worker struct {
	s *Server
	// timer is the watchdog, nil when Config.Watchdog is zero.
	timer *time.Timer
	// imgs is the batch of one handed to the backend.
	imgs [1]*tensor.Tensor
	// running is the start of the execution in progress, in nanoseconds
	// since the server started plus one; zero while idle, abandonedRun once
	// the watchdog has taken the execution over. Whoever moves it off the
	// start — the worker when the call returns, or the watchdog — owns the
	// request's outcome.
	running atomic.Int64
	// The execution in progress. The worker writes them before it stores
	// running; the watchdog reads them only after it claimed running.
	p      *pending
	cancel context.CancelFunc
}

func (s *Server) newWorker() *worker {
	w := &worker{s: s}
	if s.cfg.Watchdog > 0 {
		w.timer = time.AfterFunc(time.Hour, w.fire)
		w.timer.Stop() // armed by invoke, per execution
	}
	return w
}

// run executes requests one at a time until shutdown drains the queue, or
// until the watchdog abandons one of its executions: the slot then belongs
// to the replacement the watchdog started, and this goroutine only outlives
// the hung call. All shedding, panic isolation and breaker accounting
// happens in execute.
func (w *worker) run() {
	for {
		p, ok := w.s.take()
		if !ok {
			w.s.st.workerWG.Done()
			return
		}
		if !w.execute(p) {
			return
		}
	}
}

// invoke runs one backend call for p on the worker's goroutine, under the
// watchdog when Config.Watchdog is set. It returns errAbandoned when the
// watchdog took the execution over while the call ran: the request has
// been answered with ErrWatchdog, and the result is the worker's to
// discard. A variant already at maxAbandonedPerVariant fails fast with
// ErrWatchdog instead of starting another call.
func (w *worker) invoke(p *pending, started time.Time) (payload any, model string, err error) {
	s := w.s
	if w.timer == nil {
		return w.call(context.Background(), p)
	}
	if n := s.abandonedOn(p.variant); n >= maxAbandonedPerVariant {
		return nil, "", fmt.Errorf("serve: %d abandoned executions still running on variant %s, failing fast: %w",
			n, p.variant, ErrWatchdog)
	}
	ctx := context.Background()
	w.p, w.cancel = p, nil
	if s.ctxBackend != nil {
		ctx, w.cancel = context.WithCancel(ctx)
	}
	run := int64(started.Sub(s.start)) + 1
	w.running.Store(run)
	w.timer.Reset(s.cfg.Watchdog)
	payload, model, err = w.call(ctx, p)
	w.timer.Stop()
	if w.cancel != nil {
		w.cancel()
	}
	if !w.running.CompareAndSwap(run, 0) {
		s.abMu.Lock()
		s.abandoned[p.variant]--
		s.abMu.Unlock()
		return nil, "", errAbandoned
	}
	w.p, w.cancel = nil, nil
	return payload, model, err
}

// fire is the watchdog timer's function. It abandons the execution in
// progress only if that execution has run for the full Watchdog: a fire
// that lost the race with its own execution's end finds the worker idle or
// on a younger execution, which the re-armed timer covers, and does
// nothing. Stop's return value is no guard, since the timer is re-armed
// for the next execution while a stale fire may still be on its way.
func (w *worker) fire() {
	s := w.s
	run := w.running.Load()
	if run <= 0 || time.Since(s.start) < time.Duration(run-1)+s.cfg.Watchdog {
		return
	}
	if !w.running.CompareAndSwap(run, abandonedRun) {
		return
	}
	p := w.p
	s.abMu.Lock()
	s.abandoned[p.variant]++
	s.abMu.Unlock()
	if w.cancel != nil {
		w.cancel() // tells a ContextBackend to stop the abandoned work
	}
	err := fmt.Errorf("serve: execution on %s/%s still running after %v: %w",
		p.variant, p.task, s.cfg.Watchdog, ErrWatchdog)
	s.recordExec(p.variant, p.task, err, time.Since(s.start)-time.Duration(run-1))
	s.fail(p, err)
	// The replacement takes the slot before the hung worker gives it up, so
	// Shutdown never sees zero workers in between and never waits on the
	// hung call.
	s.st.workerWG.Add(1)
	go s.newWorker().run()
	s.st.workerWG.Done()
}

// abandonedOn reports how many watchdog-abandoned executions are still
// running on variant.
func (s *Server) abandonedOn(variant string) int {
	s.abMu.Lock()
	defer s.abMu.Unlock()
	return s.abandoned[variant]
}

// call is the recover boundary around the backend: a kernel panic becomes a
// *PanicError with the stack captured, so one poison request can never take
// down a worker or the server. The image goes to the backend as a batch of
// one, in the worker's own one-element array. A ContextBackend gets ctx,
// cancelled when the watchdog abandons the call.
func (w *worker) call(ctx context.Context, p *pending) (payload any, model string, err error) {
	defer func() {
		w.imgs[0] = nil
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	w.imgs[0] = p.image
	var payloads []any
	if cb := w.s.ctxBackend; cb != nil {
		payloads, model, err = cb.DetectBatchContext(ctx, p.variant, p.task, w.imgs[:])
	} else {
		payloads, model, err = w.s.backend.DetectBatch(p.variant, p.task, w.imgs[:])
	}
	if err == nil && len(payloads) != 1 {
		err = fmt.Errorf("serve: backend returned %d payloads for one image", len(payloads))
	}
	if err != nil {
		return nil, "", err
	}
	return payloads[0], model, nil
}

// recordExec accounts one backend execution with the lane's breaker. A
// successful execution that overran the latency SLO counts as a failure
// ("slow is the new down"), so a lane that stops meeting its SLO trips open
// and traffic degrades to the quantized fallback.
func (s *Server) recordExec(variant, task string, err error, dur time.Duration) {
	ok := err == nil
	if ok && s.cfg.LatencySLO > 0 && dur > s.cfg.LatencySLO {
		ok = false
		s.m.inc(cSLOBreaches)
	}
	if opened := s.h.record(laneKey(variant, task), ok, time.Now()); opened {
		s.m.inc(cBreakerOpens)
		// A tripped lane is a health verdict on its variant version: let
		// the registry roll the artifact back to its last-known-good
		// version while the breaker sheds load.
		s.variantUnhealthy(variant, task, UnhealthyBreaker)
	}
}

// variantUnhealthy reports a health verdict on a variant to the backend's
// registry (panic, watchdog abandonment, or breaker trip), so a bad new
// version is demoted and its name rolls back to the previous good version.
// The demoted version's result-cache entries are swept in the same breath:
// routing already stopped resolving to the demoted ID, so its entries are
// dead weight, and reclaiming their bytes immediately gives the restored
// version's results the full budget instead of waiting out TTL/LRU churn.
func (s *Server) variantUnhealthy(variant, task, reason string) {
	if sink, ok := s.backend.(VariantHealthSink); ok {
		sink.VariantUnhealthy(variant, task, reason)
		if s.cache != nil {
			if n := s.cache.InvalidateArtifact(variant); n > 0 {
				s.m.c[cArtifactSweeps].Add(uint64(n))
			}
		}
	}
}

// evictVariant asks the backend to drop the variant's cached weights after
// a panic or watchdog expiry, so the next selection reloads from storage
// instead of trusting a possibly-corrupt resident copy.
func (s *Server) evictVariant(variant string) {
	if ev, ok := s.backend.(VariantEvicter); ok {
		ev.EvictVariant(variant)
		s.m.inc(cVariantEvictions)
	}
}
