package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itask"
	"itask/internal/registry"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// writeVersion publishes v1 of one artifact into a registry layout under
// root, saving the weights with the checksummed path and recording the sum
// in the manifest — the same shape itask-train writes.
func writeVersion(t *testing.T, root, name, kind, task, file string, save func(string) (string, error)) {
	t.Helper()
	dir := registry.VersionDir(root, name, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sum, err := save(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	man := registry.Manifest{Name: name, Version: 1, Kind: kind, Task: task, Checksum: sum, File: file}
	if _, err := registry.WriteManifest(root, man); err != nil {
		t.Fatal(err)
	}
}

// POST /v1/models/reload over a registry layout hot-swaps the teacher and
// the defined task's student (checksum-verified), skips derived artifacts,
// answers with the route epoch /healthz then reports — the registry's
// content identity, which a reload of the same bytes keeps — and leaves the
// pipeline serving; /healthz reports ok until drain.
func TestReloadFromRegistryLayout(t *testing.T) {
	opts := itask.DefaultOptions()
	rng := tensor.NewRNG(7)
	dir := t.TempDir()
	writeVersion(t, dir, "teacher", "teacher", "", "teacher.ckpt",
		vit.New(opts.TeacherCfg, rng.Split()).SaveFileSum)
	writeVersion(t, dir, "patrol-student", "task-specific", "patrol", "student.ckpt",
		vit.New(opts.StudentCfg, rng.Split()).SaveFileSum)
	// A derived quantized export: present in the layout, skipped on reload
	// (the server re-quantizes from the teacher), weights never read.
	writeVersion(t, dir, "generalist-q8", "generalist", "", "weights.itq8",
		func(path string) (string, error) { return "feedc0de", os.WriteFile(path, []byte("q8"), 0o644) })

	pipe := itask.New(opts)
	if err := pipe.DefineTask("patrol", "monitor the perimeter for vehicles and people"); err != nil {
		t.Fatal(err)
	}
	backend := pipe.ServeBackend()
	h := &handler{pipe: pipe, backend: backend, modelsDir: dir, imageSize: opts.TeacherCfg.ImageSize}

	rec := httptest.NewRecorder()
	h.reload(rec, httptest.NewRequest(http.MethodPost, "/v1/models/reload", strings.NewReader("")))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status = %d body = %s", rec.Code, rec.Body)
	}
	var resp struct {
		Reloaded []string `json:"reloaded"`
		Skipped  []string `json:"skipped"`
		Epoch    uint64   `json:"epoch"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	has := func(list []string, s string) bool {
		for _, v := range list {
			if v == s {
				return true
			}
		}
		return false
	}
	if !has(resp.Reloaded, "teacher@v1") || !has(resp.Reloaded, "patrol-student@v1") {
		t.Errorf("reloaded = %v, want teacher@v1 and patrol-student@v1", resp.Reloaded)
	}
	if !has(resp.Skipped, "generalist-q8@v1") {
		t.Errorf("skipped = %v, want generalist-q8@v1", resp.Skipped)
	}
	if pipe.Teacher() == nil || pipe.Quantized() == nil || pipe.Student("patrol") == nil {
		t.Fatal("pipeline not fully loaded after reload")
	}

	// The wired /healthz: ok on the live server, draining 503 after Shutdown.
	srv, err := serve.New(backend, serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	rec = httptest.NewRecorder()
	h.healthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz: status = %d body = %s", rec.Code, rec.Body)
	}
	var rep healthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != healthOK || rep.Tasks["patrol"].Status != healthOK {
		t.Errorf("health report = %+v, want ok", rep)
	}
	// The body carries the route epoch the gateway's prober reads — on 200
	// and on 503 alike.
	epoch := pipe.Registry().Snapshot().Identity()
	if epoch == 0 || rep.Epoch != epoch || resp.Epoch != epoch {
		t.Errorf("healthz epoch = %d, reload answered %d, want the registry's content identity %d (> 0 after a reload)", rep.Epoch, resp.Epoch, epoch)
	}

	// Reloading the same bytes, with nothing left to skip, swaps every
	// snapshot again (the serve layer's route memo moves) but keeps the route
	// epoch, and the answer lists no skips as [], not null.
	if err := os.RemoveAll(filepath.Join(dir, "generalist-q8")); err != nil {
		t.Fatal(err)
	}
	seq := backend.(serve.RouteEpocher).RouteEpoch()
	rec = httptest.NewRecorder()
	h.reload(rec, httptest.NewRequest(http.MethodPost, "/v1/models/reload", strings.NewReader("")))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"skipped":[]`) {
		t.Fatalf("same-bytes reload: status = %d body = %s, want 200 with \"skipped\":[]", rec.Code, rec.Body)
	}
	resp.Epoch = 0
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Epoch != epoch {
		t.Errorf("same-bytes reload answered epoch %d (err %v), want %d as before", resp.Epoch, err, epoch)
	}
	if got := backend.(serve.RouteEpocher).RouteEpoch(); got <= seq {
		t.Errorf("same-bytes reload left the route memo's sequence at %d, was %d", got, seq)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.healthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: status = %d, want 503", rec.Code)
	}
	rep = healthReport{}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.Epoch != epoch {
		t.Errorf("draining healthz body = %s (err %v), want epoch %d", rec.Body, err, epoch)
	}
}

// A directory without a registry layout reloads the flat itask-train
// teacher.ckpt; reload request plumbing rejects bad methods, missing
// directories, and unparseable bodies with the right statuses.
func TestReloadFlatLayoutAndErrors(t *testing.T) {
	opts := itask.DefaultOptions()
	dir := t.TempDir()
	teacher := vit.New(opts.TeacherCfg, tensor.NewRNG(3))
	if err := teacher.SaveFile(filepath.Join(dir, "teacher.ckpt")); err != nil {
		t.Fatal(err)
	}
	pipe := itask.New(opts)
	h := &handler{pipe: pipe, imageSize: opts.TeacherCfg.ImageSize}

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.reload(rec, httptest.NewRequest(http.MethodPost, "/v1/models/reload", strings.NewReader(body)))
		return rec
	}

	if rec := post(`{"dir": "` + dir + `"}`); rec.Code != http.StatusOK {
		t.Fatalf("flat reload: status = %d body = %s", rec.Code, rec.Body)
	}
	if pipe.Quantized() == nil {
		t.Fatal("generalist not published after flat reload")
	}

	rec := httptest.NewRecorder()
	h.reload(rec, httptest.NewRequest(http.MethodGet, "/v1/models/reload", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reload: status = %d, want 405", rec.Code)
	}
	if rec := post(""); rec.Code != http.StatusBadRequest {
		t.Errorf("no dir configured: status = %d, want 400", rec.Code)
	}
	if rec := post("{nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad body: status = %d, want 400", rec.Code)
	}
	if rec := post(`{"dir": "` + filepath.Join(dir, "missing") + `"}`); rec.Code != http.StatusNotFound {
		t.Errorf("missing dir: status = %d, want 404", rec.Code)
	}
}
