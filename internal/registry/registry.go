// Package registry is iTask's versioned model store: every deployable model
// (the quantized generalist, per-task distilled students, and the
// non-routable float teacher and few-shot base they derive from) is published
// as an immutable, checksummed Artifact identified by name@vN#hash. The
// currently routable set lives in an atomically-swapped Snapshot
// (atomic.Pointer), so readers — the pipeline's detect path and every
// serving-layer lane — resolve models lock-free, while writers
// (distillation, few-shot adaptation, checkpoint reload) build a complete
// new artifact off to the side and publish it in one pointer swap. Nothing
// is ever mutated in place: a republished name gets a new version, the
// previous version stays available to in-flight batches, and an unhealthy
// new version can be demoted, which atomically rolls the name back to its
// newest healthy prior version.
package registry

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"itask/internal/geom"
	"itask/internal/tensor"
)

// Kind classifies an artifact's role in the dual-configuration design.
type Kind int

const (
	// TaskSpecific is a distilled per-task student: highest in-task
	// accuracy, one copy per task, routable.
	TaskSpecific Kind = iota
	// Generalist is the quantized multi-task model: lower per-task
	// accuracy, serves every mission, routable.
	Generalist
	// Teacher is the float multi-task model students distill from. It is
	// registered for provenance and reuse but never routed.
	Teacher
	// FewShotBase is the student-architecture multi-task base cloned by
	// few-shot adaptation. Registered, never routed.
	FewShotBase
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case TaskSpecific:
		return "task-specific"
	case Generalist:
		return "generalist"
	case Teacher:
		return "teacher"
	case FewShotBase:
		return "fewshot-base"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindFromString inverts Kind.String (used by layout manifests).
func KindFromString(s string) (Kind, error) {
	switch s {
	case "task-specific":
		return TaskSpecific, nil
	case "generalist":
		return Generalist, nil
	case "teacher":
		return Teacher, nil
	case "fewshot-base":
		return FewShotBase, nil
	}
	return 0, fmt.Errorf("registry: unknown kind %q", s)
}

// routable reports whether artifacts of this kind may serve traffic.
func (k Kind) routable() bool { return k == TaskSpecific || k == Generalist }

// BatchDetectFunc is the inference entry point of a published artifact: it
// runs a batch of images in one pass and returns one detection set per
// image. A single frame is a batch of one.
type BatchDetectFunc func(imgs []*tensor.Tensor) [][]geom.Scored

// ArtifactID identifies one immutable published version of a model:
// name + monotonically increasing version + content checksum.
type ArtifactID struct {
	Name     string
	Version  int
	Checksum string
}

// idSepVersion and idSepSum delimit the textual ArtifactID form.
const (
	idSepVersion = "@v"
	idSepSum     = "#"
)

// String renders the canonical textual form, e.g. "patrol-student@v3#9f2ab4".
func (id ArtifactID) String() string {
	return id.Name + idSepVersion + strconv.Itoa(id.Version) + idSepSum + id.Checksum
}

// ParseID parses the canonical textual form produced by ArtifactID.String.
func ParseID(s string) (ArtifactID, error) {
	name, rest, ok := strings.Cut(s, idSepVersion)
	if !ok || name == "" {
		return ArtifactID{}, fmt.Errorf("registry: malformed artifact id %q: %w", s, ErrUnknownArtifact)
	}
	ver, sum, ok := strings.Cut(rest, idSepSum)
	if !ok {
		return ArtifactID{}, fmt.Errorf("registry: malformed artifact id %q: %w", s, ErrUnknownArtifact)
	}
	v, err := strconv.Atoi(ver)
	if err != nil || v <= 0 {
		return ArtifactID{}, fmt.Errorf("registry: bad version in artifact id %q: %w", s, ErrUnknownArtifact)
	}
	return ArtifactID{Name: name, Version: v, Checksum: sum}, nil
}

// Artifact is one immutable published model version. The caller fills the
// descriptive fields; Publish assigns ID and the registry never mutates a
// stored artifact afterwards, so an *Artifact taken from any Snapshot may be
// used concurrently and indefinitely.
type Artifact struct {
	// Name groups versions of the same logical model (e.g.
	// "patrol-student"). Required.
	Name string
	// Kind is the artifact's role; only TaskSpecific and Generalist route.
	Kind Kind
	// Task is the mission a TaskSpecific artifact serves (empty otherwise).
	Task string
	// Bytes is the weight footprint counted against the RAM budget.
	Bytes int64
	// LatencyUS is the per-inference accelerator latency (from hwsim),
	// used to enforce request latency budgets.
	LatencyUS float64
	// Checksum is the content hash of the artifact's weights. When empty,
	// Publish derives a structural tag (fine for tests and fakes; real
	// publishers pass a weight checksum from vit/quant).
	Checksum string
	// Detect runs inference on a batch. Required for routable kinds.
	Detect BatchDetectFunc
	// Payload optionally carries the underlying model value (e.g.
	// *vit.Model) so facades can recover it without a side table.
	Payload any

	// ID is assigned by Publish: Name@vN#Checksum.
	ID ArtifactID
	// id is ID.String(), rendered once by Publish.
	id string
}

// IDString is ID.String(), rendered once when the artifact was published
// rather than on every request that names it.
func (a *Artifact) IDString() string {
	if a.id == "" {
		return a.ID.String() // not published: built by hand
	}
	return a.id
}

// Sentinel errors.
var (
	// ErrUnknownArtifact reports a name or id the registry has never seen.
	ErrUnknownArtifact = errors.New("registry: unknown artifact")
	// ErrConflict reports a publish that contradicts the routing topology:
	// a second generalist under a different name, or a task already served
	// by a different artifact name.
	ErrConflict = errors.New("registry: conflicting publish")
	// ErrNoRollback reports that a demoted or rolled-back name has no
	// healthy prior version to return to.
	ErrNoRollback = errors.New("registry: no healthy prior version")
)

// series is the version history of one artifact name. Guarded by Registry.mu.
type series struct {
	versions    []*Artifact  // index i holds version i+1
	quarantined map[int]bool // version -> demoted as unhealthy
	active      int          // currently routed version (0 = none)
}

// Registry stores versioned artifacts and derives the atomically-swapped
// routing snapshot. Writers serialize on an internal mutex and publish
// build-then-swap; readers call Snapshot and never block.
type Registry struct {
	mu     sync.Mutex
	names  map[string]*series
	byTask map[string]string // task -> artifact name serving it
	gen    string            // the single generalist name

	seq       uint64
	publishes uint64
	rollbacks uint64
	demotions uint64

	// retireHooks run inside every snapshot swap, before the new snapshot
	// is published, once per artifact version that stops being active (see
	// OnRetire).
	retireHooks []func(artifact string)

	snap atomic.Pointer[Snapshot]
}

// New creates an empty registry with an empty (but non-nil) snapshot.
func New() *Registry {
	r := &Registry{
		names:  map[string]*series{},
		byTask: map[string]string{},
	}
	r.snap.Store(&Snapshot{
		active:      map[string]*Artifact{},
		byTask:      map[string]*Artifact{},
		byID:        map[string]*Artifact{},
		quarantined: map[string]bool{},
	})
	return r
}

// Snapshot is an immutable routing view. All methods are safe for concurrent
// use by any number of readers; a Snapshot never changes after publication.
type Snapshot struct {
	seq         uint64
	identity    uint64
	active      map[string]*Artifact // name -> active version
	byTask      map[string]*Artifact // task -> active task-specific artifact
	generalist  *Artifact
	byID        map[string]*Artifact // every published version, by ID string
	quarantined map[string]bool      // ID string -> demoted
}

// Snapshot returns the current routing view (lock-free pointer load).
func (r *Registry) Snapshot() *Snapshot { return r.snap.Load() }

// Seq is the snapshot's publication sequence number; it increases with every
// swap, so readers can detect that a publish or rollback happened between
// two loads.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Identity names the content the snapshot serves: the XOR of an FNV-1a hash
// of name#checksum over each routable name's newest published version, so
// no order is needed. Registries that published the same bytes agree on it
// however many swaps each took; a demotion or rollback leaves it as it was,
// since the newest version stays the one published. 0: nothing routable.
func (s *Snapshot) Identity() uint64 { return s.identity }

// Active returns the active version of a name.
func (s *Snapshot) Active(name string) (*Artifact, bool) {
	a, ok := s.active[name]
	return a, ok
}

// ForTask returns the active task-specific artifact serving a task.
func (s *Snapshot) ForTask(task string) (*Artifact, bool) {
	a, ok := s.byTask[task]
	return a, ok
}

// Generalist returns the active generalist artifact.
func (s *Snapshot) Generalist() (*Artifact, bool) {
	if s.generalist == nil {
		return nil, false
	}
	return s.generalist, true
}

// Candidates returns the routable artifacts that could serve a task,
// preferred first: the task's student (if any), then the generalist.
func (s *Snapshot) Candidates(task string) []*Artifact {
	var out []*Artifact
	if a, ok := s.byTask[task]; ok {
		out = append(out, a)
	}
	if s.generalist != nil {
		out = append(out, s.generalist)
	}
	return out
}

// Resolve maps a variant string to an executable artifact, version-aware:
//
//   - a bare name resolves to the name's active version;
//   - a full ID string resolves to that exact version while it is healthy
//     (active or merely superseded), so in-flight batches pinned to an older
//     version still execute on the weights they were coalesced for;
//   - a full ID string of a quarantined (demoted) version resolves to the
//     name's current active version instead — the automatic-rollback path:
//     retries of a batch that was pinned to a bad new version transparently
//     land on the restored last-known-good version.
func (s *Snapshot) Resolve(variant string) (*Artifact, bool) {
	if a, ok := s.byID[variant]; ok {
		if !s.quarantined[variant] {
			return a, true
		}
		act, ok := s.active[a.Name]
		return act, ok
	}
	a, ok := s.active[variant]
	return a, ok
}

// Quarantined reports whether the exact version behind a full ID string has
// been demoted as unhealthy.
func (s *Snapshot) Quarantined(id string) bool { return s.quarantined[id] }

// Publish validates an artifact, assigns it the next version of its name,
// makes it the name's active version, and swaps the routing snapshot. The
// previous active version (if any) is retained as the healthy rollback
// target. Returns the assigned ID.
func (r *Registry) Publish(a Artifact) (ArtifactID, error) {
	switch {
	case a.Name == "":
		return ArtifactID{}, fmt.Errorf("registry: empty artifact name")
	case strings.ContainsAny(a.Name, idSepSum+"@/\\"):
		return ArtifactID{}, fmt.Errorf("registry: artifact name %q contains reserved characters", a.Name)
	case a.Kind.routable() && a.Detect == nil:
		return ArtifactID{}, fmt.Errorf("registry: routable artifact %q has no Detect", a.Name)
	case a.Kind.routable() && a.Bytes <= 0:
		return ArtifactID{}, fmt.Errorf("registry: routable artifact %q has non-positive size", a.Name)
	case a.Kind == TaskSpecific && a.Task == "":
		return ArtifactID{}, fmt.Errorf("registry: task-specific artifact %q without task", a.Name)
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	switch a.Kind {
	case Generalist:
		if r.gen != "" && r.gen != a.Name {
			return ArtifactID{}, fmt.Errorf("registry: second generalist %q (have %q): %w", a.Name, r.gen, ErrConflict)
		}
	case TaskSpecific:
		if prev, ok := r.byTask[a.Task]; ok && prev != a.Name {
			return ArtifactID{}, fmt.Errorf("registry: task %q already served by %q: %w", a.Task, prev, ErrConflict)
		}
	}
	sr := r.names[a.Name]
	if sr == nil {
		sr = &series{quarantined: map[int]bool{}}
		r.names[a.Name] = sr
	} else if sr.versions[0].Kind != a.Kind {
		return ArtifactID{}, fmt.Errorf("registry: artifact %q republished as %s, was %s: %w",
			a.Name, a.Kind, sr.versions[0].Kind, ErrConflict)
	} else if a.Kind == TaskSpecific && sr.versions[0].Task != a.Task {
		return ArtifactID{}, fmt.Errorf("registry: artifact %q republished for task %q, was %q: %w",
			a.Name, a.Task, sr.versions[0].Task, ErrConflict)
	}

	stored := a
	stored.ID = ArtifactID{Name: a.Name, Version: len(sr.versions) + 1, Checksum: a.Checksum}
	if stored.ID.Checksum == "" {
		stored.ID.Checksum = structuralSum(&stored)
	}
	stored.Checksum = stored.ID.Checksum
	stored.id = stored.ID.String()
	sr.versions = append(sr.versions, &stored)
	sr.active = stored.ID.Version
	switch a.Kind {
	case Generalist:
		r.gen = a.Name
	case TaskSpecific:
		r.byTask[a.Task] = a.Name
	}
	r.publishes++
	r.swapLocked()
	return stored.ID, nil
}

// Rollback demotes a name's active version and reactivates its newest
// healthy prior version, swapping the snapshot. It fails with ErrNoRollback
// when no healthy prior version exists (the active version then stays
// active — serving something beats serving nothing).
func (r *Registry) Rollback(name string) (ArtifactID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sr := r.names[name]
	if sr == nil || sr.active == 0 {
		return ArtifactID{}, fmt.Errorf("registry: rollback of %q: %w", name, ErrUnknownArtifact)
	}
	return r.demoteLocked(sr, sr.active)
}

// Demote quarantines one exact version as unhealthy. If it is the name's
// active version, the name atomically rolls back to its newest healthy prior
// version; the returned ID is the version now active and rolledBack reports
// whether the active version changed. Demoting an already-quarantined or
// non-active version only marks it. Unknown ids are a no-op (ok=false).
func (r *Registry) Demote(id ArtifactID) (active ArtifactID, rolledBack bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sr := r.names[id.Name]
	if sr == nil || id.Version < 1 || id.Version > len(sr.versions) {
		return ArtifactID{}, false
	}
	if sr.quarantined[id.Version] {
		// Already demoted; report the current active version unchanged.
		if sr.active > 0 {
			return sr.versions[sr.active-1].ID, false
		}
		return ArtifactID{}, false
	}
	if id.Version != sr.active {
		// A superseded version went bad: mark it so Resolve redirects any
		// still-pinned batch to the active version.
		sr.quarantined[id.Version] = true
		r.demotions++
		r.swapLocked()
		return sr.versions[sr.active-1].ID, false
	}
	newActive, err := r.demoteLocked(sr, id.Version)
	if err != nil {
		// No healthy prior version: the demoted version stays active.
		return sr.versions[sr.active-1].ID, false
	}
	return newActive, true
}

// demoteLocked quarantines version v of sr and rolls active back to the
// newest healthy prior version. Caller holds r.mu.
func (r *Registry) demoteLocked(sr *series, v int) (ArtifactID, error) {
	prev := 0
	for cand := v - 1; cand >= 1; cand-- {
		if !sr.quarantined[cand] {
			prev = cand
			break
		}
	}
	if prev == 0 {
		return ArtifactID{}, fmt.Errorf("registry: %s@v%d: %w", sr.versions[v-1].Name, v, ErrNoRollback)
	}
	sr.quarantined[v] = true
	sr.active = prev
	r.demotions++
	r.rollbacks++
	r.swapLocked()
	return sr.versions[prev-1].ID, nil
}

// OnRetire registers a hook called with the full ID string (name@vN#sum) of
// every artifact version that stops being active — the version a publish
// supersedes, or the one a demotion/rollback quarantines. Hooks run inside
// the swap, under the registry's write lock and crucially *before* the new
// snapshot is stored: derived state keyed by versioned IDs (the serving
// layer's result-cache replicas) is torn down before any reader can observe
// the new routing view, so a retired version's cached results can never be
// served alongside it. Hooks must therefore be fast and must not call back
// into the registry.
func (r *Registry) OnRetire(fn func(artifact string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retireHooks = append(r.retireHooks, fn)
}

// swapLocked rebuilds the routing snapshot from the series table and stores
// it atomically. Caller holds r.mu.
func (r *Registry) swapLocked() {
	r.seq++
	s := &Snapshot{
		seq:         r.seq,
		active:      make(map[string]*Artifact, len(r.names)),
		byTask:      make(map[string]*Artifact, len(r.byTask)),
		byID:        map[string]*Artifact{},
		quarantined: map[string]bool{},
	}
	for name, sr := range r.names {
		if newest := sr.versions[len(sr.versions)-1]; newest.Kind.routable() {
			h := fnv.New64a()
			h.Write([]byte(name + idSepSum + newest.Checksum))
			s.identity ^= h.Sum64()
		}
		for _, a := range sr.versions {
			s.byID[a.id] = a
			if sr.quarantined[a.ID.Version] {
				s.quarantined[a.id] = true
			}
		}
		if sr.active == 0 {
			continue
		}
		act := sr.versions[sr.active-1]
		s.active[name] = act
		switch act.Kind {
		case Generalist:
			s.generalist = act
		case TaskSpecific:
			s.byTask[act.Task] = act
		}
	}
	if len(r.retireHooks) > 0 {
		if old := r.snap.Load(); old != nil {
			for name, a := range old.active {
				na, ok := s.active[name]
				if ok && na.ID == a.ID {
					continue
				}
				for _, fn := range r.retireHooks {
					fn(a.id)
				}
			}
		}
	}
	r.snap.Store(s)
}

// Versions returns the full version history of a name, oldest first, with
// quarantine flags.
func (r *Registry) Versions(name string) []VersionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	sr := r.names[name]
	if sr == nil {
		return nil
	}
	out := make([]VersionInfo, len(sr.versions))
	for i, a := range sr.versions {
		out[i] = VersionInfo{
			ID:          a.ID,
			Kind:        a.Kind,
			Task:        a.Task,
			Bytes:       a.Bytes,
			Quarantined: sr.quarantined[a.ID.Version],
			Active:      sr.active == a.ID.Version,
		}
	}
	return out
}

// VersionInfo describes one published version for introspection endpoints.
type VersionInfo struct {
	ID          ArtifactID `json:"id"`
	Kind        Kind       `json:"-"`
	Task        string     `json:"task,omitempty"`
	Bytes       int64      `json:"bytes"`
	Quarantined bool       `json:"quarantined,omitempty"`
	Active      bool       `json:"active,omitempty"`
}

// Stats are the registry's lifetime counters.
type Stats struct {
	// Publishes counts successful Publish calls (every new version).
	Publishes uint64 `json:"publishes"`
	// Rollbacks counts active-version rollbacks (via Rollback or Demote of
	// an active version with a healthy prior).
	Rollbacks uint64 `json:"rollbacks"`
	// Demotions counts versions quarantined as unhealthy.
	Demotions uint64 `json:"demotions"`
	// Names is the number of distinct artifact names.
	Names int `json:"names"`
	// Versions is the total number of published versions across all names.
	Versions int `json:"versions"`
	// Seq is the current snapshot sequence number.
	Seq uint64 `json:"seq"`
}

// Stats returns the lifetime counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Publishes: r.publishes,
		Rollbacks: r.rollbacks,
		Demotions: r.demotions,
		Names:     len(r.names),
		Seq:       r.seq,
	}
	for _, sr := range r.names {
		st.Versions += len(sr.versions)
	}
	return st
}

// structuralSum derives a stable tag for artifacts published without a
// content checksum (test fakes, synthetic models): FNV-1a over the
// descriptive fields. It is NOT a weight checksum — real model publishers
// pass one computed by vit/quant checksummed serialization.
func structuralSum(a *Artifact) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%d|%g|%d", a.Name, a.Kind, a.Task, a.Bytes, a.LatencyUS, a.ID.Version)
	return fmt.Sprintf("%08x", h.Sum64()&0xffffffff)
}
