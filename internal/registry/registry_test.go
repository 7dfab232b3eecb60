package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"itask/internal/geom"
	"itask/internal/tensor"
)

func stubDetect(class int) BatchDetectFunc {
	return func(imgs []*tensor.Tensor) [][]geom.Scored {
		out := make([][]geom.Scored, len(imgs))
		for i := range out {
			out[i] = []geom.Scored{{Class: class, Score: 0.9}}
		}
		return out
	}
}

func publishStudent(t *testing.T, r *Registry, name, task string, class int) ArtifactID {
	t.Helper()
	id, err := r.Publish(Artifact{
		Name: name, Kind: TaskSpecific, Task: task,
		Bytes: 100, LatencyUS: 10, Detect: stubDetect(class),
	})
	if err != nil {
		t.Fatalf("publish %s: %v", name, err)
	}
	return id
}

func TestPublishAssignsVersionsAndSwapsSnapshot(t *testing.T) {
	r := New()
	s0 := r.Snapshot()
	id1 := publishStudent(t, r, "patrol-student", "patrol", 1)
	if id1.Version != 1 || id1.Name != "patrol-student" || id1.Checksum == "" {
		t.Fatalf("first publish id = %+v", id1)
	}
	id2 := publishStudent(t, r, "patrol-student", "patrol", 2)
	if id2.Version != 2 {
		t.Fatalf("second publish version = %d, want 2", id2.Version)
	}
	s := r.Snapshot()
	if s == s0 || s.Seq() <= s0.Seq() {
		t.Fatal("snapshot not swapped by publish")
	}
	a, ok := s.Active("patrol-student")
	if !ok || a.ID != id2 {
		t.Fatalf("active = %+v, want v2", a)
	}
	if a2, ok := s.ForTask("patrol"); !ok || a2.ID != id2 {
		t.Fatalf("ForTask = %+v, want v2", a2)
	}
	// The superseded v1 still resolves by exact ID (in-flight batches).
	if got, ok := s.Resolve(id1.String()); !ok || got.ID != id1 {
		t.Fatalf("Resolve(v1) = %+v, want v1", got)
	}
	// Bare name resolves to active.
	if got, ok := s.Resolve("patrol-student"); !ok || got.ID != id2 {
		t.Fatalf("Resolve(name) = %+v, want v2", got)
	}
}

func TestPublishValidation(t *testing.T) {
	r := New()
	cases := []Artifact{
		{},                           // no name
		{Name: "x@y", Kind: Teacher}, // reserved char
		{Name: "a", Kind: TaskSpecific, Task: "t", Bytes: 10},             // routable, no Detect
		{Name: "a", Kind: TaskSpecific, Task: "t", Detect: stubDetect(0)}, // no bytes
		{Name: "a", Kind: TaskSpecific, Bytes: 10, Detect: stubDetect(0)}, // no task
	}
	for i, a := range cases {
		if _, err := r.Publish(a); err == nil {
			t.Errorf("case %d: publish %+v succeeded, want error", i, a)
		}
	}
	// Non-routable kinds need neither Detect nor Bytes.
	if _, err := r.Publish(Artifact{Name: "teacher", Kind: Teacher}); err != nil {
		t.Errorf("teacher publish: %v", err)
	}
}

func TestPublishConflicts(t *testing.T) {
	r := New()
	if _, err := r.Publish(Artifact{Name: "gen", Kind: Generalist, Bytes: 10, Detect: stubDetect(0)}); err != nil {
		t.Fatal(err)
	}
	// Second generalist under a different name conflicts.
	if _, err := r.Publish(Artifact{Name: "gen2", Kind: Generalist, Bytes: 10, Detect: stubDetect(0)}); !errors.Is(err, ErrConflict) {
		t.Errorf("second generalist: err = %v, want ErrConflict", err)
	}
	// Same generalist name republishes fine.
	if _, err := r.Publish(Artifact{Name: "gen", Kind: Generalist, Bytes: 10, Detect: stubDetect(0)}); err != nil {
		t.Errorf("generalist republish: %v", err)
	}
	publishStudent(t, r, "s1", "patrol", 1)
	// Different name for the same task conflicts.
	if _, err := r.Publish(Artifact{Name: "s2", Kind: TaskSpecific, Task: "patrol", Bytes: 10, Detect: stubDetect(0)}); !errors.Is(err, ErrConflict) {
		t.Errorf("task takeover: err = %v, want ErrConflict", err)
	}
	// Kind change under one name conflicts.
	if _, err := r.Publish(Artifact{Name: "s1", Kind: Generalist, Bytes: 10, Detect: stubDetect(0)}); !errors.Is(err, ErrConflict) {
		t.Errorf("kind flip: err = %v, want ErrConflict", err)
	}
	// Task change under one name conflicts.
	if _, err := r.Publish(Artifact{Name: "s1", Kind: TaskSpecific, Task: "rescue", Bytes: 10, Detect: stubDetect(0)}); !errors.Is(err, ErrConflict) {
		t.Errorf("task flip: err = %v, want ErrConflict", err)
	}
}

func TestDemoteRollsBackToLastKnownGood(t *testing.T) {
	r := New()
	id1 := publishStudent(t, r, "s", "patrol", 1)
	id2 := publishStudent(t, r, "s", "patrol", 2)

	active, rolledBack := r.Demote(id2)
	if !rolledBack || active != id1 {
		t.Fatalf("Demote(v2) = %v,%v, want v1,true", active, rolledBack)
	}
	s := r.Snapshot()
	if a, _ := s.Active("s"); a.ID != id1 {
		t.Fatalf("active after demote = %+v, want v1", a)
	}
	// Retries pinned to the quarantined v2 redirect to v1.
	if got, ok := s.Resolve(id2.String()); !ok || got.ID != id1 {
		t.Fatalf("Resolve(quarantined v2) = %+v, want v1", got)
	}
	if !s.Quarantined(id2.String()) {
		t.Error("v2 not marked quarantined in snapshot")
	}
	st := r.Stats()
	if st.Rollbacks != 1 || st.Demotions != 1 {
		t.Errorf("stats = %+v, want 1 rollback, 1 demotion", st)
	}
	// Double demote is a no-op reporting current active.
	if active, rb := r.Demote(id2); rb || active != id1 {
		t.Errorf("re-demote = %v,%v, want v1,false", active, rb)
	}
}

func TestDemoteSoleVersionStaysActive(t *testing.T) {
	r := New()
	id1 := publishStudent(t, r, "s", "patrol", 1)
	active, rolledBack := r.Demote(id1)
	if rolledBack || active != id1 {
		t.Fatalf("Demote(sole v1) = %v,%v, want v1,false (serve something over nothing)", active, rolledBack)
	}
	if a, ok := r.Snapshot().Active("s"); !ok || a.ID != id1 {
		t.Fatalf("sole version vacated: %+v %v", a, ok)
	}
}

func TestDemoteSupersededVersionMarksOnly(t *testing.T) {
	r := New()
	id1 := publishStudent(t, r, "s", "patrol", 1)
	id2 := publishStudent(t, r, "s", "patrol", 2)
	// v1 is already superseded; demoting it must not move active.
	active, rolledBack := r.Demote(id1)
	if rolledBack || active != id2 {
		t.Fatalf("Demote(superseded v1) = %v,%v, want v2,false", active, rolledBack)
	}
	if got, ok := r.Snapshot().Resolve(id1.String()); !ok || got.ID != id2 {
		t.Fatalf("Resolve(quarantined v1) = %+v, want redirect to v2", got)
	}
}

// A snapshot's identity names the routable content, not the history behind
// it: registries that published the same bytes agree however often each
// republished them, a demotion or rollback keeps it, other bytes move it,
// and a non-routable kind never enters it.
func TestSnapshotIdentityNamesContent(t *testing.T) {
	publish := func(r *Registry, name string, kind Kind, task, sum string) ArtifactID {
		t.Helper()
		id, err := r.Publish(Artifact{Name: name, Kind: kind, Task: task, Bytes: 100, Checksum: sum, Detect: stubDetect(1)})
		if err != nil {
			t.Fatalf("publish %s#%s: %v", name, sum, err)
		}
		return id
	}
	a, b := New(), New()
	if got := a.Snapshot().Identity(); got != 0 {
		t.Fatalf("empty registry identity = %d, want 0", got)
	}
	publish(a, "gen", Generalist, "", "g1")
	publish(a, "s", TaskSpecific, "patrol", "s1")
	for i := 0; i < 3; i++ { // the same bytes three times, in the other order, beside a teacher
		publish(b, "teacher", Teacher, "", fmt.Sprint("t", i))
		publish(b, "s", TaskSpecific, "patrol", "s1")
		publish(b, "gen", Generalist, "", "g1")
	}
	same := a.Snapshot().Identity()
	if same == 0 || b.Snapshot().Identity() != same || a.Snapshot().Seq() == b.Snapshot().Seq() {
		t.Fatalf("identities %d and %d at seqs %d and %d, want equal and non-zero",
			same, b.Snapshot().Identity(), a.Snapshot().Seq(), b.Snapshot().Seq())
	}

	g2 := publish(a, "gen", Generalist, "", "g2")
	other := a.Snapshot().Identity()
	if other == same {
		t.Fatal("other generalist bytes kept the identity")
	}
	if _, rolledBack := a.Demote(g2); !rolledBack {
		t.Fatal("demoting gen v2 did not roll back")
	}
	if got := a.Snapshot().Identity(); got != other {
		t.Fatalf("identity after a demotion = %d, want %d as published", got, other)
	}
	if _, err := b.Rollback("gen"); err != nil {
		t.Fatal(err)
	}
	if got := b.Snapshot().Identity(); got != same {
		t.Fatalf("identity after a rollback = %d, want %d as published", got, same)
	}
}

func TestRollbackExplicit(t *testing.T) {
	r := New()
	_ = publishStudent(t, r, "s", "patrol", 1)
	id2 := publishStudent(t, r, "s", "patrol", 2)
	id3 := publishStudent(t, r, "s", "patrol", 3)
	if active, err := r.Rollback("s"); err != nil || active.Version != 2 {
		t.Fatalf("rollback v3: %v, %v", active, err)
	}
	// Rolling back again lands on v1; then nothing healthy remains.
	if active, err := r.Rollback("s"); err != nil || active.Version != 1 {
		t.Fatalf("rollback v2: %v, %v", active, err)
	}
	if _, err := r.Rollback("s"); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback sole healthy: err = %v, want ErrNoRollback", err)
	}
	if _, err := r.Rollback("ghost"); !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("rollback unknown: err = %v, want ErrUnknownArtifact", err)
	}
	// Republishing after rollbacks continues the version sequence.
	id4 := publishStudent(t, r, "s", "patrol", 4)
	if id4.Version != 4 {
		t.Fatalf("post-rollback publish version = %d, want 4", id4.Version)
	}
	_ = id2
	_ = id3
	vs := r.Versions("s")
	if len(vs) != 4 || !vs[3].Active || !vs[1].Quarantined || !vs[2].Quarantined {
		t.Fatalf("versions = %+v", vs)
	}
}

func TestArtifactIDRoundTrip(t *testing.T) {
	id := ArtifactID{Name: "patrol-student", Version: 7, Checksum: "9f2ab4"}
	got, err := ParseID(id.String())
	if err != nil || got != id {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for _, bad := range []string{"", "name", "name@vX#s", "@v1#s", "name@v0#s", "name@v1"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) succeeded, want error", bad)
		}
	}
}

// Readers loading snapshots concurrently with publishes and demotions must
// never observe a torn or internally inconsistent view (run with -race).
func TestSnapshotReadersNeverTear(t *testing.T) {
	r := New()
	publishStudent(t, r, "s", "patrol", 1)
	if _, err := r.Publish(Artifact{Name: "gen", Kind: Generalist, Bytes: 10, Detect: stubDetect(9)}); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := r.Snapshot()
				a, ok := s.ForTask("patrol")
				if !ok {
					t.Error("task vanished from snapshot")
					return
				}
				// Every active artifact must be executable and resolvable.
				if a.Detect == nil || a.ID.Version < 1 {
					t.Errorf("torn artifact: %+v", a)
					return
				}
				if got, ok := s.Resolve(a.ID.String()); !ok || got == nil {
					t.Error("active ID failed to resolve in its own snapshot")
					return
				}
			}
		}()
	}
	var lastID ArtifactID
	for v := 0; v < 200; v++ {
		id := publishStudent(t, r, "s", "patrol", v)
		if v%3 == 2 {
			r.Demote(id)
		}
		lastID = id
	}
	stop.Store(true)
	wg.Wait()
	if lastID == (ArtifactID{}) {
		t.Fatal("no publishes happened")
	}
	st := r.Stats()
	if st.Publishes < 200 || st.Rollbacks == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestOnRetire pins the hook contract: exactly the versions that stop being
// active are reported, before the new snapshot is observable.
func TestOnRetire(t *testing.T) {
	r := New()
	var retired []string
	r.OnRetire(func(artifact string) {
		// The hook runs before the swap: the retired ID must still be the
		// active one in the currently-published snapshot.
		if a, ok := r.Snapshot().Active("s"); ok && a.ID.String() != artifact {
			t.Errorf("hook for %s ran after snapshot swap (active now %s)", artifact, a.ID)
		}
		retired = append(retired, artifact)
	})

	v1 := publishStudent(t, r, "s", "patrol", 1)
	if len(retired) != 0 {
		t.Fatalf("first publish retired %v", retired)
	}
	v2 := publishStudent(t, r, "s", "patrol", 2)
	if len(retired) != 1 || retired[0] != v1.String() {
		t.Fatalf("publish over v1: retired %v, want [%s]", retired, v1)
	}
	// Demoting the active version rolls back to v1 and retires v2.
	if _, rolledBack := r.Demote(v2); !rolledBack {
		t.Fatal("demote did not roll back")
	}
	if len(retired) != 2 || retired[1] != v2.String() {
		t.Fatalf("demote of v2: retired %v, want [... %s]", retired, v2)
	}
	// Marking an already-inactive version quarantined changes no active set:
	// no retirement.
	r.Demote(v2)
	if len(retired) != 2 {
		t.Fatalf("re-demote retired %v", retired)
	}
	// An unrelated publish retires nothing.
	publishStudent(t, r, "other", "rescue", 3)
	if len(retired) != 2 {
		t.Fatalf("unrelated publish retired %v", retired)
	}
}

func TestManifestLayoutRoundTrip(t *testing.T) {
	root := t.TempDir()
	m := Manifest{Name: "patrol-student", Version: 1, Kind: TaskSpecific.String(),
		Task: "patrol", Checksum: "abc123", File: "weights.ckpt"}
	dir, err := WriteManifest(root, m)
	if err != nil {
		t.Fatal(err)
	}
	if dir != VersionDir(root, "patrol-student", 1) {
		t.Fatalf("dir = %s", dir)
	}
	// Versions are immutable: rewriting the same version fails.
	if _, err := WriteManifest(root, m); err == nil {
		t.Fatal("overwriting a published version succeeded")
	}
	m2 := m
	m2.Version = 2
	if _, err := WriteManifest(root, m2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil || got != m {
		t.Fatalf("ReadManifest = %+v, %v", got, err)
	}
	if v, err := LatestVersion(root, "patrol-student"); err != nil || v != 2 {
		t.Fatalf("LatestVersion = %d, %v, want 2", v, err)
	}
	if v, err := LatestVersion(root, "ghost"); err != nil || v != 0 {
		t.Fatalf("LatestVersion(ghost) = %d, %v, want 0", v, err)
	}
	names, err := Names(root)
	if err != nil || len(names) != 1 || names[0] != "patrol-student" {
		t.Fatalf("Names = %v, %v", names, err)
	}
	lm, ldir, err := LatestManifest(root, "patrol-student")
	if err != nil || lm.Version != 2 || ldir != VersionDir(root, "patrol-student", 2) {
		t.Fatalf("LatestManifest = %+v, %s, %v", lm, ldir, err)
	}
	if _, _, err := LatestManifest(root, "ghost"); !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("LatestManifest(ghost): err = %v", err)
	}
	// Bad kind strings are rejected on read.
	dirBad := VersionDir(root, "x", 1)
	if err := os.MkdirAll(dirBad, 0o755); err != nil {
		t.Fatal(err)
	}
	raw := `{"name":"x","version":1,"kind":"alien","checksum":"c","file":"w"}`
	if err := os.WriteFile(filepath.Join(dirBad, ManifestFile), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dirBad); err == nil {
		t.Fatal("alien kind accepted")
	}
}
