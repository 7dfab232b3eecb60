package gateway

import (
	"errors"
	"math/rand/v2"
	"time"

	"itask/internal/serve"
)

// retry.go: failover pacing. PR 6's failover retried a successor
// immediately and unconditionally, which is exactly how one flapping shard
// turns into a fleet-wide retry storm: every request that touches it fires
// a second (and third) attempt at the survivors, multiplying load right
// when the fleet has the least spare capacity. Three mechanisms bound it:
//
//   - Full-jitter exponential backoff between failover attempts: attempt k
//     waits a uniform draw from [0, min(RetryBackoff × 2^k, RetryBackoffMax)).
//     Full jitter (attempt spread over the whole interval, not around its
//     midpoint) decorrelates the retry times of the many requests that
//     discovered a failure in the same instant.
//   - Retry-After honor: a 429/503 that advertises a retry horizon is a
//     shard telling us its queue depth; the failover waits
//     min(Retry-After, RetryBackoffMax) before the next attempt instead of
//     immediately re-landing the same work one ring position over.
//   - A token-bucket retry budget shared by all requests (a fair.Budget
//     with the whole fleet on one key): each failover attempt (not first
//     attempts) spends one token from a bucket refilled at RetryBudgetRate
//     tokens/sec with RetryBudgetBurst depth. When the bucket is dry the
//     request fails with its last error instead of retrying — under a
//     persistent fault the fleet serves what it can and sheds the rest,
//     rather than amplifying every failure by MaxRetries.
//
// All three are off for zero config values, preserving PR 6 behavior.

// retryAfterOf extracts a shard-advertised retry horizon from a failover
// error: an explicit NodeError hint (HTTP adapters parse Retry-After into
// it) or an in-process open breaker's own backoff.
func retryAfterOf(err error) time.Duration {
	var ne *NodeError
	if errors.As(err, &ne) && ne.RetryAfter > 0 {
		return ne.RetryAfter
	}
	var bo *serve.BreakerOpenError
	if errors.As(err, &bo) && bo.RetryAfter > 0 {
		return bo.RetryAfter
	}
	return 0
}

// retryDelay computes the pause before failover attempt number attempt
// (0-based: the delay taken after the attempt-th try failed): the larger of
// the full-jitter backoff draw and the failed shard's capped Retry-After.
func (g *Gateway) retryDelay(attempt int, lastErr error) time.Duration {
	var d time.Duration
	if base := g.cfg.RetryBackoff; base > 0 {
		ceil := base << uint(attempt)
		if max := g.cfg.RetryBackoffMax; max > 0 && (ceil > max || ceil <= 0) {
			ceil = max
		}
		d = rand.N(ceil) // full jitter: uniform in [0, ceil)
	}
	// Retry-After is honored only when failover pacing is configured at
	// all: an unconfigured gateway keeps its legacy immediate failover
	// even against hinting shards.
	if max := g.cfg.RetryBackoffMax; max > 0 {
		if ra := retryAfterOf(lastErr); ra > 0 {
			if ra > max {
				ra = max
			}
			if ra > d {
				d = ra
			}
		}
	}
	return d
}

// sleepRetry pauses for d, bailing out early if ctx ends. Reports whether
// the pause completed.
func sleepRetry(ctx interface{ Done() <-chan struct{} }, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
