package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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
// to blame and none to retry.
func (s *Server) execute(p *pending) {
	started := time.Now()
	switch {
	case p.cancelled.Load():
		s.shed(p, cShedCancelled, context.Canceled)
		return
	case !p.deadline.IsZero() && started.After(p.deadline):
		s.shed(p, cShedExpired, ErrDeadlineExceeded)
		return
	}

	payload, model, err := s.invoke(p.variant, p.task, p.image)
	s.recordExec(p.variant, p.task, err, time.Since(started))
	if err != nil {
		s.fail(p, err)
		return
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
// variant cannot grow an abandoned goroutine per request or probe without
// bound (each fast failure still counts against the variant's breaker).
const maxAbandonedPerVariant = 4

// invokeResult carries one backend execution's outcome out of its goroutine.
type invokeResult struct {
	payload any
	model   string
	err     error
}

// invoke runs one backend call under the watchdog deadline. When the
// backend hangs past Config.Watchdog the call is abandoned — its context is
// cancelled so a ContextBackend can stop the work; a plain Backend's
// goroutine keeps running until it returns on its own — and the request
// fails with ErrWatchdog. Abandoned executions are counted per variant and
// capped at maxAbandonedPerVariant.
func (s *Server) invoke(variant, task string, img *tensor.Tensor) (any, string, error) {
	if s.cfg.Watchdog <= 0 {
		return s.call(context.Background(), variant, task, img)
	}
	if n := s.abandonedOn(variant); n >= maxAbandonedPerVariant {
		return nil, "", fmt.Errorf("serve: %d abandoned executions still running on variant %s, failing fast: %w",
			n, variant, ErrWatchdog)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // on watchdog expiry this tells the abandoned execution to stop
	ch := make(chan invokeResult, 1)
	go func() {
		p, m, e := s.call(ctx, variant, task, img)
		ch <- invokeResult{p, m, e}
	}()
	timer := time.NewTimer(s.cfg.Watchdog)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.payload, r.model, r.err
	case <-timer.C:
		s.trackAbandoned(variant, ch)
		return nil, "", fmt.Errorf("serve: execution on %s/%s still running after %v: %w",
			variant, task, s.cfg.Watchdog, ErrWatchdog)
	}
}

// abandonedOn reports how many watchdog-abandoned executions are still
// running on variant.
func (s *Server) abandonedOn(variant string) int {
	s.abMu.Lock()
	defer s.abMu.Unlock()
	return s.abandoned[variant]
}

// trackAbandoned counts one abandoned execution against variant and reaps
// the count when the execution's goroutine finally delivers its (discarded)
// result.
func (s *Server) trackAbandoned(variant string, ch <-chan invokeResult) {
	s.abMu.Lock()
	s.abandoned[variant]++
	s.abMu.Unlock()
	go func() {
		<-ch
		s.abMu.Lock()
		s.abandoned[variant]--
		s.abMu.Unlock()
	}()
}

// call is the recover boundary around the backend: a kernel panic becomes a
// *PanicError with the stack captured, so one poison request can never take
// down a worker or the server. The image goes to the backend as a batch of
// one. Backends implementing ContextBackend get the execution context,
// cancelled when the watchdog abandons the call.
func (s *Server) call(ctx context.Context, variant, task string, img *tensor.Tensor) (payload any, model string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	imgs := []*tensor.Tensor{img}
	var payloads []any
	if cb, ok := s.backend.(ContextBackend); ok {
		payloads, model, err = cb.DetectBatchContext(ctx, variant, task, imgs)
	} else {
		payloads, model, err = s.backend.DetectBatch(variant, task, imgs)
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
