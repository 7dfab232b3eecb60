// Package sched is iTask's situational runtime, the "situational
// adaptability" component of the paper: it picks a configuration per mission
// request (the task's distilled student, or the quantized generalist) and
// keeps model weights RAM-resident in an LRU cache under an edge memory
// budget. Models live in internal/registry as immutable, versioned artifacts
// behind an atomically-swapped snapshot, so routing (Route/RouteFallback) is
// a lock-free snapshot read; only the weight cache and its accounting
// counters sit behind the scheduler mutex, and cache entries are keyed by
// full artifact ID so each published version loads (and evicts)
// independently.
package sched

import (
	"fmt"
	"sync"

	"itask/internal/geom"
	"itask/internal/registry"
	"itask/internal/tensor"
)

// The configuration kinds of the paper's dual-configuration design.
const (
	// TaskSpecific is a distilled per-task student: highest in-task
	// accuracy, one copy per task.
	TaskSpecific = registry.TaskSpecific
	// Generalist is the quantized multi-task model: lower per-task
	// accuracy, works for every mission.
	Generalist = registry.Generalist
)

// Model is one deployable, immutable, versioned artifact. It is an alias for
// registry.Artifact: a *Model returned by Select is a snapshot-published
// value and may be used concurrently and indefinitely.
type Model = registry.Artifact

// Scheduler owns the weight cache and the selection policy over the
// registry's routing snapshot.
//
// Concurrency: all methods are safe for concurrent use. Route and
// RouteFallback are lock-free snapshot reads; a single mutex guards the LRU
// cache and the accounting counters. Model inference (DetectBatchOn) runs
// outside any lock, so many requests execute concurrently while cache
// admission stays serialized. The exported Switches and LoadTimeUS fields
// are written under the lock — read them via Snapshot (or only after
// concurrent use has quiesced).
type Scheduler struct {
	// LoadBandwidthMBs models weight loading from storage to RAM, charged
	// on cache misses.
	LoadBandwidthMBs float64

	reg    *registry.Registry
	budget int64

	mu    sync.Mutex
	cache *lruCache

	// Switches counts model changes between consecutive requests.
	Switches int
	last     string
	// LoadTimeUS accumulates time spent loading weights on misses.
	LoadTimeUS float64
}

// New creates a scheduler with its own empty registry and the given RAM
// budget for model weights.
func New(budgetBytes int64) *Scheduler {
	return NewWith(registry.New(), budgetBytes)
}

// NewWith creates a scheduler routing over an existing registry, so the
// owner (e.g. the Pipeline facade) can publish and roll back artifacts while
// the scheduler serves them.
func NewWith(reg *registry.Registry, budgetBytes int64) *Scheduler {
	return &Scheduler{
		LoadBandwidthMBs: 100,
		reg:              reg,
		budget:           budgetBytes,
		cache:            newLRUCache(budgetBytes),
	}
}

// Register publishes a model into the registry as the next version of its
// name. Unlike the pre-registry scheduler, re-registering a name is not an
// error: it publishes a new version and atomically makes it the routed one.
func (s *Scheduler) Register(m Model) error {
	_, err := s.reg.Publish(m)
	return err
}

// Request describes one mission inference call.
type Request struct {
	Task string
	// LatencyBudgetUS, when > 0, rejects models whose inference latency
	// exceeds it (the real-time constraint of the paper's edge setting).
	LatencyBudgetUS float64
}

// Route picks the variant for a request — the task-specific student when one
// exists, fits the cache, and meets the latency budget; otherwise the
// quantized generalist — and reports it as a full artifact ID string
// (name@vN#sum) without loading it or perturbing the cache. The serving
// layer uses this to coalesce requests targeting the same variant before
// committing to a load; because the ID pins an exact version, a batch
// coalesced for one version never silently executes on another. Lock-free:
// one snapshot load, no scheduler mutex.
func (s *Scheduler) Route(req Request) (string, error) {
	cands := s.reg.Snapshot().Candidates(req.Task)
	if len(cands) == 0 {
		return "", fmt.Errorf("sched: no model can serve task %q", req.Task)
	}
	var lastErr error
	for _, m := range cands {
		if err := s.admissible(m, req.LatencyBudgetUS); err != nil {
			lastErr = err
			continue
		}
		return m.IDString(), nil
	}
	return "", lastErr
}

// RouteFallback reports the degraded-path variant for the request: the
// quantized generalist's active version, regardless of whether a
// task-specific student exists. The serving layer uses it to keep a task
// servable when the preferred variant's circuit breaker is open — the
// paper's dual-configuration adaptability, driven by failure instead of
// situation. Lock-free.
func (s *Scheduler) RouteFallback(req Request) (string, error) {
	m, ok := s.reg.Snapshot().Generalist()
	if !ok {
		return "", fmt.Errorf("sched: no generalist fallback for task %q", req.Task)
	}
	if err := s.admissible(m, req.LatencyBudgetUS); err != nil {
		return "", err
	}
	return m.IDString(), nil
}

// admissible checks a candidate against the request latency budget and the
// cache budget (both immutable per-artifact / per-scheduler, so no lock).
func (s *Scheduler) admissible(m *Model, latencyBudgetUS float64) error {
	if latencyBudgetUS > 0 && m.LatencyUS > latencyBudgetUS {
		return fmt.Errorf("sched: model %q latency %.0fus over budget %.0fus",
			m.ID, m.LatencyUS, latencyBudgetUS)
	}
	if m.Bytes > s.budget {
		return fmt.Errorf("sched: model %q (%d B) exceeds cache budget (%d B)",
			m.ID, m.Bytes, s.budget)
	}
	return nil
}

// resolve maps a variant string (bare name or full artifact ID) to the
// artifact that should execute it, via the current snapshot. A full ID of a
// quarantined version transparently redirects to the name's active version —
// the automatic-rollback path for retries of batches pinned to a version
// that went bad.
func (s *Scheduler) resolve(variant string) (*Model, error) {
	m, ok := s.reg.Snapshot().Resolve(variant)
	if !ok {
		return nil, fmt.Errorf("sched: no model %q registered", variant)
	}
	return m, nil
}

// SelectByName loads a specific variant (LRU-evicting as needed) and
// accounts load time — the forced-variant path the serving layer uses to
// execute a batch on exactly the lane it was coalesced for, including
// degraded batches pinned to the quantized fallback. Accepts bare names and
// full artifact IDs.
func (s *Scheduler) SelectByName(variant string) (*Model, error) {
	m, err := s.resolve(variant)
	if err != nil {
		return nil, err
	}
	if err := s.admit(m); err != nil {
		return nil, err
	}
	return m, nil
}

// admit ensures an artifact's weights are cache-resident, accounting load
// time and switches.
func (s *Scheduler) admit(m *Model) error {
	key := m.IDString()
	s.mu.Lock()
	defer s.mu.Unlock()
	hit, err := s.cache.ensure(key, m.Bytes)
	if err != nil {
		return err
	}
	if !hit {
		s.LoadTimeUS += float64(m.Bytes) / (s.LoadBandwidthMBs * 1e6) * 1e6
	}
	if s.last != "" && s.last != key {
		s.Switches++
	}
	s.last = key
	return nil
}

// DetectBatchOn runs a batch on a specific variant: one selection, one
// cache touch and at most one weight load for the whole batch, which is what
// makes coalescing pay. A single frame is a batch of one. Inference runs
// outside the scheduler lock; the model's Detect must not depend on the
// model still being cache-resident (a concurrent request may evict it).
func (s *Scheduler) DetectBatchOn(variant string, imgs []*tensor.Tensor) ([][]geom.Scored, *Model, error) {
	m, err := s.SelectByName(variant)
	if err != nil {
		return nil, nil, err
	}
	return m.Detect(imgs), m, nil
}

// Evict drops a variant's weights from the model cache, reporting whether it
// was resident. The serving layer calls this after a variant panics or
// hangs: the resident copy can no longer be trusted as healthy, so the next
// selection must reload it from storage rather than reuse it. Accepts bare
// names and full artifact IDs.
func (s *Scheduler) Evict(variant string) bool {
	key := variant
	if m, err := s.resolve(variant); err == nil {
		key = m.IDString()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Try the resolved active version first, then the literal string (a
	// quarantined version's own weights may still be resident under its
	// exact ID even though resolve redirects away from it).
	if s.cache.evict(key) {
		return true
	}
	if key != variant {
		return s.cache.evict(variant)
	}
	return false
}

// Select picks the model for a request, as Route does, then loads it
// (LRU-evicting as needed) and accounts load time, as SelectByName does.
func (s *Scheduler) Select(req Request) (*Model, error) {
	variant, err := s.Route(req)
	if err != nil {
		return nil, err
	}
	return s.SelectByName(variant)
}

// Stats returns cache statistics.
func (s *Scheduler) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.stats
}

// Snapshot bundles the scheduler's accounting counters, read atomically
// with respect to concurrent requests.
type Snapshot struct {
	Cache      CacheStats
	Switches   int
	LoadTimeUS float64
}

// Snapshot returns all scheduler counters under one lock acquisition.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{Cache: s.cache.stats, Switches: s.Switches, LoadTimeUS: s.LoadTimeUS}
}

// Resident returns loaded artifact ID strings, least recently used first.
func (s *Scheduler) Resident() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Resident()
}

// Lookup resolves a variant string (bare name or full artifact ID) without
// loading it. Used by serving-layer introspection.
func (s *Scheduler) Lookup(variant string) (*Model, bool) {
	m, err := s.resolve(variant)
	if err != nil {
		return nil, false
	}
	return m, true
}
