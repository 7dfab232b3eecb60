package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"itask/internal/gateway"
	"itask/internal/wire"
)

// fakeBackend is an httptest-served itask-serve lookalike: detect answers
// carry the backend's name, each reload takes the next content (its models
// directory is republished between reloads) and answers that content's
// epoch, seq, healthz speaks the real endpoint's shape (status and epoch),
// and metricsz only counts its callers — the gateway has no business
// scraping it.
type fakeBackend struct {
	name string
	srv  *httptest.Server

	mu         sync.Mutex
	seq        uint64
	detects    int
	reloads    int
	healthzs   int    // GET /healthz
	scrapes    int    // GET /metricsz
	status     int    // non-zero forces every detect to this status
	failReload bool   // reloads answer 500 and leave seq alone
	lastTenant string // X-Itask-Tenant seen on the latest detect
}

func newFakeBackend(name string) *fakeBackend {
	b := &fakeBackend{name: name, seq: 1}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		b.mu.Lock()
		b.detects++
		b.lastTenant = r.Header.Get("X-Itask-Tenant")
		status := b.status
		b.mu.Unlock()
		if status != 0 {
			if status == http.StatusTooManyRequests {
				// Real itask-serve backpressure advertises a horizon.
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"forced %d"}`, status)
			return
		}
		var probe struct {
			Task   string `json:"task"`
			Tenant string `json:"tenant"`
		}
		// The lookalike accepts both ingress encodings the way real
		// itask-serve does: a binary tensor frame or a JSON body.
		if fr, err := wire.ParseFrame(body); err == nil {
			probe.Task, probe.Tenant = string(fr.Task), string(fr.Tenant)
		} else if json.Unmarshal(body, &probe) != nil {
			probe.Task = ""
		}
		if probe.Task == "" {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":"missing task"}`)
			return
		}
		// Echo the normalized tenant the way real itask-serve does: the
		// body's tenant field wins over the forwarded header.
		tenant := probe.Tenant
		if tenant == "" {
			tenant = r.Header.Get("X-Itask-Tenant")
		}
		if tenant != "" {
			w.Header().Set("X-Itask-Tenant", tenant)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"task":%q,"model":%q,"detections":[]}`, probe.Task, b.name)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		b.healthzs++
		seq := b.seq
		b.mu.Unlock()
		fmt.Fprintf(w, `{"status":"ok","epoch":%d}`, seq)
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		b.scrapes++
		seq := b.seq
		b.mu.Unlock()
		fmt.Fprintf(w, `{"registry":{"seq":%d}}`, seq)
	})
	mux.HandleFunc("/v1/models/reload", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		b.reloads++
		fail := b.failReload
		if !fail {
			b.seq++
		}
		seq := b.seq
		b.mu.Unlock()
		if fail {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"checkpoint unreadable"}`)
			return
		}
		fmt.Fprintf(w, `{"reloaded":["teacher"],"skipped":[],"epoch":%d}`, seq)
	})
	b.srv = httptest.NewServer(mux)
	return b
}

func (b *fakeBackend) detectCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.detects
}

func (b *fakeBackend) tenantSeen() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastTenant
}

func (b *fakeBackend) forceStatus(code int) {
	b.mu.Lock()
	b.status = code
	b.mu.Unlock()
}

func newTestApp(t *testing.T, cfg gateway.Config, backends ...*fakeBackend) (*app, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.srv.URL
	}
	a, err := newApp(cfg, urls, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(a.mux())
	t.Cleanup(func() {
		front.Close()
		a.g.Close()
		for _, b := range backends {
			b.srv.Close()
		}
	})
	return a, front
}

func passiveCfg() gateway.Config {
	return gateway.Config{VirtualNodes: 64, MaxRetries: 1, FailThreshold: 1, EjectFor: time.Minute}
}

func sceneBody(task string, seed int) string {
	return fmt.Sprintf(`{"task":%q,"scene":{"domain":"driving","seed":%d}}`, task, seed)
}

func postDetect(t *testing.T, front *httptest.Server, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(front.URL+"/v1/detect", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// Content-consistent routing with shard attribution: a given body always
// lands on the same shard (named in X-Itask-Shard), and distinct content
// spreads over the fleet.
func TestDetectRoutesByContentWithAttribution(t *testing.T) {
	a, front := newTestApp(t, passiveCfg(), newFakeBackend("b0"), newFakeBackend("b1"), newFakeBackend("b2"))
	shardOf := map[int]string{}
	for seed := 0; seed < 40; seed++ {
		for rep := 0; rep < 3; rep++ {
			resp, body := postDetect(t, front, sceneBody("patrol", seed))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
			}
			shard := resp.Header.Get("X-Itask-Shard")
			if shard == "" {
				t.Fatal("response missing X-Itask-Shard")
			}
			if prev, ok := shardOf[seed]; ok && prev != shard {
				t.Fatalf("seed %d flapped between shards %s and %s", seed, prev, shard)
			}
			shardOf[seed] = shard
			if !strings.Contains(body, `"task":"patrol"`) {
				t.Fatalf("backend body not relayed: %s", body)
			}
		}
	}
	distinct := map[string]bool{}
	for _, s := range shardOf {
		distinct[s] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("40 distinct scenes all routed to one shard: %v", distinct)
	}
	if snap := a.g.Snapshot(); snap.Routed == 0 || snap.Failed != 0 {
		t.Fatalf("snapshot routed/failed = %d/%d", snap.Routed, snap.Failed)
	}
}

// A dead backend's keys fail over transparently: the client sees 200 from a
// successor with the attempt recorded, and the dead shard is ejected.
func TestDetectFailsOverWhenBackendDies(t *testing.T) {
	b0, b1 := newFakeBackend("b0"), newFakeBackend("b1")
	a, front := newTestApp(t, passiveCfg(), b0, b1)

	// Find a seed owned by b0, then kill b0.
	victimSeed := -1
	for seed := 0; seed < 64 && victimSeed < 0; seed++ {
		resp, _ := postDetect(t, front, sceneBody("patrol", seed))
		if resp.Header.Get("X-Itask-Shard") == b0.srv.URL {
			victimSeed = seed
		}
	}
	if victimSeed < 0 {
		t.Fatal("no seed routed to b0")
	}
	b0.srv.Close()

	resp, body := postDetect(t, front, sceneBody("patrol", victimSeed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover detect: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Itask-Shard"); got != b1.srv.URL {
		t.Fatalf("served by %s, want survivor %s", got, b1.srv.URL)
	}
	if got := resp.Header.Get("X-Itask-Attempts"); got != "2" {
		t.Fatalf("X-Itask-Attempts = %s, want 2", got)
	}
	snap := a.g.Snapshot()
	if snap.Ejections == 0 {
		t.Fatal("dead backend not ejected")
	}
	// Subsequent requests for the same key route straight to the survivor.
	resp, _ = postDetect(t, front, sceneBody("patrol", victimSeed))
	if resp.Header.Get("X-Itask-Attempts") != "1" {
		t.Fatal("ejected backend still tried first")
	}
}

// Backend verdicts about request content relay as-is — no failover, no
// second backend touched.
func TestDetectPassesThroughContentVerdicts(t *testing.T) {
	b0, b1 := newFakeBackend("b0"), newFakeBackend("b1")
	_, front := newTestApp(t, passiveCfg(), b0, b1)

	resp, body := postDetect(t, front, `{"scene":{"domain":"driving","seed":1}}`) // no task
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "missing task") {
		t.Fatalf("backend 400 not relayed: %d %s", resp.StatusCode, body)
	}

	b0.forceStatus(http.StatusUnprocessableEntity)
	b1.forceStatus(http.StatusUnprocessableEntity)
	before := b0.detectCount() + b1.detectCount()
	resp, _ = postDetect(t, front, sceneBody("patrol", 9))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("422 verdict became %d", resp.StatusCode)
	}
	if got := b0.detectCount() + b1.detectCount() - before; got != 1 {
		t.Fatalf("content verdict touched %d backends, want 1", got)
	}
}

// 429 backpressure spills to a successor instead of surfacing.
func TestDetectSpillsOnBackpressure(t *testing.T) {
	b0, b1 := newFakeBackend("b0"), newFakeBackend("b1")
	_, front := newTestApp(t, passiveCfg(), b0, b1)
	seed := 0
	for ; seed < 64; seed++ {
		resp, _ := postDetect(t, front, sceneBody("patrol", seed))
		if resp.Header.Get("X-Itask-Shard") == b0.srv.URL {
			break
		}
	}
	b0.forceStatus(http.StatusTooManyRequests)
	resp, body := postDetect(t, front, sceneBody("patrol", seed))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backpressure not failed over: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Itask-Shard"); got != b1.srv.URL {
		t.Fatalf("spilled to %s, want %s", got, b1.srv.URL)
	}
}

// A fleet-wide reload converges every backend and reports the fleet epoch.
// With the prober off it reaches each backend as one exchange: the reload,
// whose answer carries the epoch, and no /healthz read after it.
func TestReloadPropagatesFleetWide(t *testing.T) {
	b0, b1, b2 := newFakeBackend("b0"), newFakeBackend("b1"), newFakeBackend("b2")
	a, front := newTestApp(t, passiveCfg(), b0, b1, b2)

	resp, err := http.Post(front.URL+"/v1/models/reload", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 2 {
		t.Fatalf("fleet epoch = %d, want 2 (seq 1 + one reload)", out.Epoch)
	}
	for _, b := range []*fakeBackend{b0, b1, b2} {
		b.mu.Lock()
		reloads, healthzs, seq := b.reloads, b.healthzs, b.seq
		b.mu.Unlock()
		if reloads != 1 || healthzs != 0 || seq != 2 {
			t.Fatalf("%s: reloads=%d healthz reads=%d seq=%d, want 1/0/2", b.name, reloads, healthzs, seq)
		}
	}
	if a.g.CommittedEpoch() != out.Epoch {
		t.Fatalf("committed epoch %d != reported %d", a.g.CommittedEpoch(), out.Epoch)
	}
}

// A backend whose reload fails is out of step with a change the rest of the
// fleet took: the reload answers 502 naming it and the committed epoch,
// /metricsz shows it lagging, no detect reaches it — and once it catches up
// (here: it takes the committed content out of band) the prober readmits
// it.
func TestReloadFailedBackendLagsUntilItConverges(t *testing.T) {
	b0, b1, b2 := newFakeBackend("b0"), newFakeBackend("b1"), newFakeBackend("b2")
	b1.failReload = true
	cfg := passiveCfg()
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.ProbeTimeout = time.Second
	_, front := newTestApp(t, cfg, b0, b1, b2)

	resp, err := http.Post(front.URL+"/v1/models/reload", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Epoch uint64 `json:"epoch"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway || out.Epoch != 2 || !strings.Contains(out.Error, b1.srv.URL) {
		t.Fatalf("reload with one failing backend: %d %s, want 502 at epoch 2 naming %s", resp.StatusCode, body, b1.srv.URL)
	}

	laggingB1 := func() bool {
		resp, err := http.Get(front.URL + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap gateway.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		for _, n := range snap.Nodes {
			if n.ID == b1.srv.URL {
				return n.Lagging
			}
		}
		t.Fatalf("%s missing from /metricsz", b1.srv.URL)
		return false
	}
	if !laggingB1() {
		t.Fatal("backend that failed its reload is not lagging in /metricsz")
	}
	for seed := 0; seed < 90; seed++ {
		if resp, body := postDetect(t, front, sceneBody("patrol", seed)); resp.StatusCode != http.StatusOK {
			t.Fatalf("detect beside a lagging backend: %d %s", resp.StatusCode, body)
		}
	}
	if n := b1.detectCount(); n != 0 {
		t.Fatalf("lagging backend received %d routed requests", n)
	}

	b1.mu.Lock()
	b1.seq = out.Epoch
	b1.mu.Unlock()
	waitFor(t, 2*time.Second, "the prober to readmit the converged backend", func() bool { return !laggingB1() })
	for seed := 0; seed < 90 && b1.detectCount() == 0; seed++ {
		postDetect(t, front, sceneBody("patrol", seed))
	}
	if b1.detectCount() == 0 {
		t.Fatal("readmitted backend still receives no traffic")
	}
}

// The gateway reads a backend's route epoch from /healthz, never from the
// full /metricsz snapshot: neither a run of probe sweeps nor a reload
// scrapes a shard.
func TestEpochReadsNeverScrapeMetricsz(t *testing.T) {
	b0, b1 := newFakeBackend("b0"), newFakeBackend("b1")
	cfg := passiveCfg()
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.ProbeTimeout = time.Second
	a, front := newTestApp(t, cfg, b0, b1)

	epochs := func() (out []uint64) {
		for _, n := range a.g.Snapshot().Nodes {
			out = append(out, n.Epoch)
		}
		return out
	}
	waitFor(t, 2*time.Second, "a probe sweep to report both backends at epoch 1", func() bool {
		return fmt.Sprint(epochs()) == "[1 1]"
	})
	resp, err := http.Post(front.URL+"/v1/models/reload", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fmt.Sprint(epochs()) != "[2 2]" {
		t.Fatalf("reload: %d, member epochs %v, want 200 and [2 2]", resp.StatusCode, epochs())
	}
	time.Sleep(30 * time.Millisecond) // a few more sweeps
	for _, b := range []*fakeBackend{b0, b1} {
		b.mu.Lock()
		scrapes := b.scrapes
		b.mu.Unlock()
		if scrapes != 0 {
			t.Errorf("%s: %d GET /metricsz from the gateway, want none", b.name, scrapes)
		}
	}
}

// The gateway starts in the documented static-only mode (-lease-ttl 0 with
// a seed list) and with a lease shorter than a second: the suspect horizon
// derives from the lease, so no lease can be too short for it.
func TestStartsWithoutLeasesAndWithShortLeases(t *testing.T) {
	announce := func(front *httptest.Server, url string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/announce", "application/json", strings.NewReader(fmt.Sprintf(`{"url":%q}`, url)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	static := gateway.DefaultConfig()
	static.LeaseTTL = 0
	seed := newFakeBackend("seed")
	_, front := newTestApp(t, static, seed) // fails the test if newApp refuses the config
	if resp, body := postDetect(t, front, sceneBody("patrol", 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect on a static-only gateway: %d %s", resp.StatusCode, body)
	}
	shard := newFakeBackend("shard")
	defer shard.srv.Close()
	if code, _ := announce(front, shard.srv.URL); code != http.StatusNotImplemented {
		t.Fatalf("announce on a static-only gateway: %d, want 501", code)
	}

	short := gateway.DefaultConfig()
	short.LeaseTTL = 500 * time.Millisecond
	_, front = newTestApp(t, short)
	if code, ack := announce(front, shard.srv.URL); code != http.StatusOK || ack["lease_ms"] != 500.0 {
		t.Fatalf("announce under a 500ms lease: %d %v, want 200 granting lease_ms 500", code, ack)
	}
}

// healthz flips to 503 only when no backend is routable.
func TestGatewayHealthz(t *testing.T) {
	b0, b1 := newFakeBackend("b0"), newFakeBackend("b1")
	a, front := newTestApp(t, passiveCfg(), b0, b1)
	get := func() (int, string) {
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, `"available":2`) {
		t.Fatalf("healthy fleet: %d %s", code, body)
	}
	// Kill both backends and push traffic until passive accounting ejects
	// them; healthz must then refuse.
	b0.srv.Close()
	b1.srv.Close()
	for seed := 0; seed < 8; seed++ {
		resp, _ := postDetect(t, front, sceneBody("patrol", seed))
		if resp.StatusCode == http.StatusOK {
			t.Fatal("detect succeeded with every backend dead")
		}
	}
	if a.g.Snapshot().Failed == 0 {
		t.Fatal("no failures recorded with the fleet dead")
	}
	if code, body := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet healthz: %d %s", code, body)
	}
}

// routeKey alignment: image bodies digest like the shard cache, scene bodies
// key on (task, domain, seed), garbage falls back to the task.
func TestRouteKeyDerivation(t *testing.T) {
	img := `{"task":"patrol","image":{"shape":[3,2,2],"data":[1,2,3,4,5,6,7,8,9,10,11,12]}}`
	k1, k2 := routeKey([]byte(img)), routeKey([]byte(img))
	if !k1.HasDigest || k1 != k2 {
		t.Fatalf("image keys unstable: %+v vs %+v", k1, k2)
	}
	s1 := routeKey([]byte(sceneBody("patrol", 7)))
	s2 := routeKey([]byte(sceneBody("patrol", 8)))
	if !s1.HasDigest || !s2.HasDigest || s1.Digest == s2.Digest {
		t.Fatalf("scene seeds 7/8 not distinctly keyed: %+v vs %+v", s1, s2)
	}
	if k := routeKey([]byte(`{"task":"patrol"}`)); k.HasDigest || k.Task != "patrol" {
		t.Fatalf("bare task body mis-keyed: %+v", k)
	}
	if k := routeKey([]byte(`not json`)); k.HasDigest || k.Task != "" {
		t.Fatalf("garbage body mis-keyed: %+v", k)
	}
	// A shape/data mismatch must not panic or allocate a bogus tensor.
	if k := routeKey([]byte(`{"task":"t","image":{"shape":[3,100,100],"data":[1]}}`)); k.HasDigest {
		t.Fatalf("mismatched image spec produced a digest: %+v", k)
	}
}

// Tenant identity threads the whole proxied path: the gateway validates it
// at its own door, forwards it to the shard as X-Itask-Tenant, relays the
// shard's echo back to the client, and attributes the request in its
// per-tenant counters.
func TestDetectTenantThreading(t *testing.T) {
	b0, b1 := newFakeBackend("b0"), newFakeBackend("b1")
	a, front := newTestApp(t, passiveCfg(), b0, b1)

	post := func(body, headerTenant string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/detect", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if headerTenant != "" {
			req.Header.Set("X-Itask-Tenant", headerTenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	// A header-identified tenant reaches the shard and echoes back.
	resp, body := post(sceneBody("patrol", 1), "acme")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Itask-Tenant"); got != "acme" {
		t.Fatalf("echoed tenant %q, want acme", got)
	}
	if b0.tenantSeen() != "acme" && b1.tenantSeen() != "acme" {
		t.Fatalf("no backend saw the forwarded tenant (b0 %q, b1 %q)", b0.tenantSeen(), b1.tenantSeen())
	}

	// The body's tenant field wins over the header, end to end.
	resp, body = post(`{"task":"patrol","tenant":"bodywins","scene":{"domain":"driving","seed":2}}`, "ignored")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Itask-Tenant"); got != "bodywins" {
		t.Fatalf("echoed tenant %q, want bodywins", got)
	}

	// Hostile ids are refused at the gateway door, before any backend sees
	// the request.
	before := b0.detectCount() + b1.detectCount()
	for _, bad := range []struct{ body, header string }{
		{sceneBody("patrol", 3), strings.Repeat("x", 65)},
		{`{"task":"patrol","tenant":"a\u0001b","scene":{"domain":"driving","seed":3}}`, ""},
	} {
		resp, body = post(bad.body, bad.header)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("hostile tenant got status %d: %s", resp.StatusCode, body)
		}
	}
	if after := b0.detectCount() + b1.detectCount(); after != before {
		t.Fatalf("rejected tenants still reached backends (%d -> %d detects)", before, after)
	}

	want := map[string]uint64{"acme": 1, "bodywins": 1}
	for _, row := range a.g.Snapshot().PerTenant {
		if n, ok := want[row.Tenant]; ok {
			if row.Routed != n {
				t.Errorf("tenant %s routed %d, want %d", row.Tenant, row.Routed, n)
			}
			delete(want, row.Tenant)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing per-tenant rows for %v: %+v", want, a.g.Snapshot().PerTenant)
	}
}
