package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"itask"
	"itask/internal/gateway"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/vit"
	"itask/internal/wire"
)

// fleet_test.go: the fleet's one staleness rule end to end, over door shards
// that load real checkpoints. A shard's route epoch is the identity of the
// content its registry serves, so it is on the ring exactly while that is
// the committed content — after a restart, on a fresh shard, after a reload
// of unchanged bytes — and off it while it serves other bytes.

// modelShard stands in for an itask-serve started with -models dir: a
// pipeline loaded from the directory's teacher.ckpt behind the door server,
// answering /healthz and /v1/models/reload with its route epoch as
// itask-serve does.
type modelShard struct {
	url, dir string
	pipe     *itask.Pipeline
	door     *wire.Server
}

// startModelShard loads dir into a fresh pipeline and serves it on addr
// ("127.0.0.1:0" for a new port).
func startModelShard(t *testing.T, addr, dir string) *modelShard {
	t.Helper()
	s := &modelShard{dir: dir, pipe: itask.New(itask.DefaultOptions())}
	if err := s.load(dir); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s.url = "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": s.epoch()})
	})
	mux.HandleFunc("/v1/models/reload", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Dir string `json:"dir"`
		}
		body, _ := io.ReadAll(r.Body)
		if len(bytes.TrimSpace(body)) > 0 && json.Unmarshal(body, &req) != nil {
			wire.WriteError(w, http.StatusBadRequest, "bad reload request")
			return
		}
		dir := s.dir
		if req.Dir != "" {
			dir = req.Dir
		}
		if err := s.load(dir); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		wire.WriteJSON(w, http.StatusOK, map[string]any{"reloaded": []string{dir}, "skipped": []string{}, "epoch": s.epoch()})
	})
	s.door = &wire.Server{Handler: mux}
	go s.door.Serve(ln)
	t.Cleanup(s.stop)
	return s
}

func (s *modelShard) load(dir string) error {
	return s.pipe.ReloadGeneralist(filepath.Join(dir, "teacher.ckpt"), "")
}

func (s *modelShard) epoch() uint64 { return s.pipe.Registry().Snapshot().Identity() }

// stop closes the shard's door, as a killed process's would close.
func (s *modelShard) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.door.Shutdown(ctx)
}

// writeTeacher saves a teacher checkpoint drawn from seed into a new models
// directory.
func writeTeacher(t *testing.T, seed uint64) string {
	t.Helper()
	dir := t.TempDir()
	m := vit.New(itask.DefaultOptions().TeacherCfg, tensor.NewRNG(seed))
	if err := m.SaveFile(filepath.Join(dir, "teacher.ckpt")); err != nil {
		t.Fatal(err)
	}
	return dir
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(b)
}

// Two shards from one models directory take two fleet reloads; then, with
// no further publish, each way a shard can come to serve the committed
// content puts it on the ring within a probe cycle, and serving other bytes
// takes it off until the next fleet reload.
func TestFleetEpochNamesContent(t *testing.T) {
	cfg := gateway.Config{
		VirtualNodes:  64,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		LeaseTTL:      time.Minute, // no lease lapses inside the test
		RampWindows:   1,
	}
	a, err := newApp(cfg, nil, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(a.mux())
	t.Cleanup(func() {
		front.Close()
		a.g.Close()
	})
	models, other := writeTeacher(t, 1), writeTeacher(t, 2)

	announce := func(t *testing.T, s *modelShard) {
		t.Helper()
		if code, body := postJSON(t, front.URL+"/v1/announce", fmt.Sprintf(`{"url":%q,"epoch":%d}`, s.url, s.epoch())); code != http.StatusOK {
			t.Fatalf("announce %s: %d %s", s.url, code, body)
		}
	}
	fleetReload := func(t *testing.T) (int, string) {
		t.Helper()
		return postJSON(t, front.URL+"/v1/models/reload", `{}`)
	}
	status := func(t *testing.T, s *modelShard) gateway.NodeStatus {
		t.Helper()
		resp, err := http.Get(front.URL + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap gateway.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		for _, ns := range snap.Nodes {
			if ns.ID == s.url {
				return ns
			}
		}
		t.Fatalf("%s missing from /metricsz", s.url)
		return gateway.NodeStatus{}
	}
	onRing := func(ns gateway.NodeStatus) bool { return ns.Weight > 0 && !ns.Lagging && !ns.Ejected }
	// settle waits a probe cycle or two for s to be on the ring or off it.
	settle := func(t *testing.T, s *modelShard, want bool) {
		t.Helper()
		var ns gateway.NodeStatus
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if ns = status(t, s); onRing(ns) == want {
				return
			}
		}
		t.Errorf("%s on the ring = %v, want %v: %+v at committed %d", s.url, onRing(ns), want, ns, a.g.CommittedEpoch())
	}

	top := t // shards outlive the subtest that starts them
	shards := []*modelShard{startModelShard(t, "127.0.0.1:0", models), startModelShard(t, "127.0.0.1:0", models)}
	for _, s := range shards {
		announce(t, s)
	}
	for i := 0; i < 2; i++ {
		if code, body := fleetReload(t); code != http.StatusOK {
			t.Fatalf("fleet reload %d: %d %s", i+1, code, body)
		}
	}
	if got, want := a.g.CommittedEpoch(), shards[0].epoch(); got != want || got == 0 {
		t.Fatalf("committed epoch %d, the shards serve %d", got, want)
	}

	t.Run("restart from the same directory", func(t *testing.T) {
		shards[1].stop()
		shards[1] = startModelShard(top, strings.TrimPrefix(shards[1].url, "http://"), models)
		announce(t, shards[1])
		settle(t, shards[1], true)
	})
	t.Run("fresh shard", func(t *testing.T) {
		shards = append(shards, startModelShard(top, "127.0.0.1:0", models))
		announce(t, shards[2])
		settle(t, shards[2], true)
	})
	t.Run("direct reload of the same bytes", func(t *testing.T) {
		if code, body := postJSON(t, shards[0].url+"/v1/models/reload", `{}`); code != http.StatusOK {
			t.Fatalf("direct reload: %d %s", code, body)
		}
		time.Sleep(3 * cfg.ProbeInterval)
		settle(t, shards[0], true)
		if code, body := fleetReload(t); code != http.StatusOK {
			t.Errorf("fleet reload after a direct one: %d %s", code, body)
		}
	})
	t.Run("direct reload of other bytes", func(t *testing.T) {
		if code, body := postJSON(t, shards[2].url+"/v1/models/reload", fmt.Sprintf(`{"dir":%q}`, other)); code != http.StatusOK {
			t.Fatalf("direct reload: %d %s", code, body)
		}
		settle(t, shards[2], false)
		if code, body := fleetReload(t); code != http.StatusOK {
			t.Errorf("fleet reload: %d %s", code, body)
		}
		settle(t, shards[2], true)
	})
	t.Run("demoted version", func(t *testing.T) {
		// shards[2] loaded the other bytes between two reloads of the
		// fleet's: demoting its active generalist rolls it back to them.
		before, _ := shards[2].pipe.Registry().Snapshot().Generalist()
		shards[2].pipe.ServeBackend().(serve.VariantHealthSink).VariantUnhealthy(before.IDString(), "patrol", "test")
		after, _ := shards[2].pipe.Registry().Snapshot().Generalist()
		if after.Checksum == before.Checksum {
			t.Fatalf("the demotion left %s active, want a rollback to the other bytes", after.IDString())
		}
		time.Sleep(3 * cfg.ProbeInterval)
		settle(t, shards[2], true)
	})
}
