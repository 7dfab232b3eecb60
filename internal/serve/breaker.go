package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState uint8

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stOpen:
		return "open"
	case stHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker tracks the health of one (variant, task) lane. Guarded by the
// owning health registry's mutex.
type breaker struct {
	state    breakerState
	failures int // consecutive failed executions while closed
	backoff  time.Duration
	retryAt  time.Time // when an open breaker next admits a probe
	probing  bool      // a half-open probe is in flight
	opens    uint64
}

// health is the per-lane circuit-breaker registry. Breakers trip on
// consecutive execution failures (panics, errors, watchdog expiries, and —
// when a LatencySLO is configured — slow executions), stay open for an
// exponentially growing backoff, and heal through a single half-open probe
// request that rides the normal lane.
type health struct {
	threshold  int
	backoff    time.Duration
	maxBackoff time.Duration

	mu    sync.Mutex
	lanes map[string]*breaker
}

func newHealth(threshold int, backoff, maxBackoff time.Duration) *health {
	if maxBackoff < backoff {
		maxBackoff = backoff
	}
	return &health{
		threshold:  threshold,
		backoff:    backoff,
		maxBackoff: maxBackoff,
		lanes:      map[string]*breaker{},
	}
}

// admitDecision is the outcome of consulting a lane's breaker at admission.
type admitDecision uint8

const (
	// admitOK: the lane is healthy, proceed.
	admitOK admitDecision = iota
	// admitProbe: the lane is half-open and this request claimed the
	// single probe slot; the caller must releaseProbe if the request never
	// reaches execution.
	admitProbe
	// admitDeny: the breaker is open (or a probe is already in flight);
	// route to a fallback or reject.
	admitDeny
)

// admit consults the breaker for key. Disabled breakers always admit.
func (h *health) admit(key string, now time.Time) admitDecision {
	if h.threshold <= 0 {
		return admitOK
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	br := h.lanes[key]
	if br == nil {
		return admitOK
	}
	switch br.state {
	case stOpen:
		if now.Before(br.retryAt) {
			return admitDeny
		}
		br.state = stHalfOpen
		br.probing = true
		return admitProbe
	case stHalfOpen:
		if br.probing {
			return admitDeny
		}
		br.probing = true
		return admitProbe
	default:
		return admitOK
	}
}

// releaseProbe returns a claimed half-open probe slot when the probing
// request failed admission downstream (queue full, shutting down), so the
// lane is not stuck half-open with no probe ever executing.
func (h *health) releaseProbe(key string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if br := h.lanes[key]; br != nil && br.state == stHalfOpen {
		br.probing = false
	}
}

// record accounts one backend execution outcome for key and reports whether
// this observation tripped the breaker open.
func (h *health) record(key string, ok bool, now time.Time) (opened bool) {
	if h.threshold <= 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	br := h.lanes[key]
	if br == nil {
		br = &breaker{}
		h.lanes[key] = br
	}
	if ok {
		br.state = stClosed
		br.failures = 0
		br.probing = false
		br.backoff = 0
		return false
	}
	br.failures++
	switch br.state {
	case stHalfOpen:
		// Failed probe: reopen with doubled backoff.
		br.backoff *= 2
		if br.backoff == 0 {
			br.backoff = h.backoff
		}
		if br.backoff > h.maxBackoff {
			br.backoff = h.maxBackoff
		}
		br.state = stOpen
		br.retryAt = now.Add(br.backoff)
		br.probing = false
		br.opens++
		return true
	case stClosed:
		if br.failures >= h.threshold {
			br.state = stOpen
			br.backoff = h.backoff
			br.retryAt = now.Add(br.backoff)
			br.opens++
			return true
		}
	}
	return false
}

// retryAfter reports how long until an open breaker admits its next probe.
func (h *health) retryAfter(key string, now time.Time) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	br := h.lanes[key]
	if br == nil || br.state != stOpen {
		return 0
	}
	if d := br.retryAt.Sub(now); d > 0 {
		return d
	}
	return 0
}

// LaneBreaker is the snapshot of one lane's circuit breaker, shaped for the
// /metricsz endpoint.
type LaneBreaker struct {
	Variant             string  `json:"variant"`
	Task                string  `json:"task"`
	State               string  `json:"state"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	Opens               uint64  `json:"opens"`
	RetryAfterMS        float64 `json:"retry_after_ms,omitempty"`
}

// snapshot returns all tracked lane breakers, sorted by (variant, task).
func (h *health) snapshot(now time.Time) []LaneBreaker {
	h.mu.Lock()
	out := make([]LaneBreaker, 0, len(h.lanes))
	for key, br := range h.lanes {
		variant, task, _ := strings.Cut(key, laneKeySep)
		lb := LaneBreaker{
			Variant:             variant,
			Task:                task,
			State:               br.state.String(),
			ConsecutiveFailures: br.failures,
			Opens:               br.opens,
		}
		if br.state == stOpen {
			if d := br.retryAt.Sub(now); d > 0 {
				lb.RetryAfterMS = float64(d) / float64(time.Millisecond)
			}
		}
		out = append(out, lb)
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Variant != out[j].Variant {
			return out[i].Variant < out[j].Variant
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// laneKeySep joins (variant, task) into breaker map keys.
const laneKeySep = "\x1f"

func laneKey(variant, task string) string { return variant + laneKeySep + task }

// BreakerOpenError is returned by Submit when the routed lane's circuit
// breaker is open and no healthy fallback variant exists. It unwraps to
// ErrBreakerOpen; RetryAfter is how long until the breaker admits a probe
// (the Retry-After header of the HTTP 503).
type BreakerOpenError struct {
	Variant    string
	Task       string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: circuit open for variant %q task %q (retry in %v)",
		e.Variant, e.Task, e.RetryAfter.Round(time.Millisecond))
}

func (e *BreakerOpenError) Unwrap() error { return ErrBreakerOpen }
