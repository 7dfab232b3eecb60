package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"itask"
	"itask/internal/chaos"
	"itask/internal/wire"
)

// Workload is one declared traffic mix, read from bench/workloads.json.
type Workload struct {
	Name string `json:"name"`
	// Topology is "shard" (one itask-serve) or "fleet" (itask-gateway in
	// front of two itask-serve shards joined by -announce leases).
	Topology string `json:"topology"`
	// Encoding is "frame" (application/x-itask-tensor) or "json".
	Encoding string `json:"encoding"`
	// Frames is the number of distinct frames drawn zipf(ZipfS); 0 makes
	// every request a frame the servers have never seen.
	Frames int     `json:"frames"`
	ZipfS  float64 `json:"zipf_s"`
	// Tasks are assigned per frame, so one frame always asks one task.
	Tasks []string `json:"tasks"`
	// Tenants cycle per request in X-Itask-Tenant; empty sends no header.
	Tenants []string `json:"tenants"`
	// TenantWeights is itask-serve's -tenant-weights; ServeHotThreshold and
	// GatewayHotThreshold, when set, are itask-serve's and itask-gateway's
	// -hot-threshold. Every other flag keeps its default. They are typed,
	// not free-form arguments, because the in-process replay has to
	// configure the same layers the same way.
	TenantWeights       map[string]int `json:"tenant_weights"`
	ServeHotThreshold   *int           `json:"serve_hot_threshold"`
	GatewayHotThreshold *int           `json:"gateway_hot_threshold"`
	// ReloadEveryMS makes client 0 post /v1/models/reload in place of a
	// detect whenever this long has passed; 0 never reloads.
	ReloadEveryMS int `json:"reload_every_ms"`
	// FailedShareBound is the share of attempted ops that may fail before
	// the run is reported incorrect.
	FailedShareBound float64 `json:"failed_share_bound"`
}

// Suite is the whole of bench/workloads.json.
type Suite struct {
	// Zoo is how the shared model zoo is trained (itask-train flags) and
	// which published students are removed from the work copy so that both
	// of the paper's configurations are on the serving path.
	Zoo struct {
		Samples int      `json:"samples"`
		Epochs  int      `json:"epochs"`
		Seed    uint64   `json:"seed"`
		Drop    []string `json:"drop"`
	} `json:"zoo"`
	Workloads []Workload `json:"workloads"`
}

func loadSuite(path string) (*Suite, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		switch {
		case w.Topology != "shard" && w.Topology != "fleet":
			return nil, fmt.Errorf("%s: workload %q: topology %q", path, w.Name, w.Topology)
		case w.Encoding != "frame" && w.Encoding != "json":
			return nil, fmt.Errorf("%s: workload %q: encoding %q", path, w.Name, w.Encoding)
		case len(w.Tasks) == 0:
			return nil, fmt.Errorf("%s: workload %q: no tasks", path, w.Name)
		case w.Frames > 0 && w.ZipfS <= 1:
			return nil, fmt.Errorf("%s: workload %q: zipf_s must exceed 1", path, w.Name)
		case w.Frames == 0 && w.Encoding == "json":
			return nil, fmt.Errorf("%s: workload %q: JSON bodies are pre-encoded, so frames must be bounded", path, w.Name)
		}
	}
	return &s, nil
}

// serveArgs and gatewayArgs are the declared settings as process flags.
func (w Workload) serveArgs() []string {
	var args []string
	if len(w.TenantWeights) > 0 {
		var pairs []string
		for tenant, weight := range w.TenantWeights {
			pairs = append(pairs, fmt.Sprintf("%s=%d", tenant, weight))
		}
		sort.Strings(pairs)
		args = append(args, "-tenant-weights", strings.Join(pairs, ","))
	}
	if w.ServeHotThreshold != nil {
		args = append(args, "-hot-threshold", fmt.Sprint(*w.ServeHotThreshold))
	}
	return args
}

func (w Workload) gatewayArgs() []string {
	if w.GatewayHotThreshold == nil {
		return nil
	}
	return []string{"-hot-threshold", fmt.Sprint(*w.GatewayHotThreshold)}
}

func (s *Suite) workload(name string) (Workload, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

const (
	// scenePool is how many rendered scenes back a workload's frames: frame
	// r is scene r%scenePool with r/2^24 written into pixel (0,0,0), so the
	// content digest changes without holding every frame in memory.
	scenePool = 64
	imageSize = 32
	imageLen  = 3 * imageSize * imageSize
	// maxRank keeps r/2^24 exact in a float32 mantissa.
	maxRank = 1 << 24
)

var (
	imageShape = [3]int{3, imageSize, imageSize}
	domains    = []itask.Domain{itask.Driving, itask.Medical, itask.Industrial, itask.Orchard}
)

// universe holds a workload's pre-rendered scenes and pre-encoded bodies.
// It is read-only once built, so client goroutines share it.
type universe struct {
	w       Workload
	clients int
	seed    uint64
	scenes  [][]float32
	// frames[t][s] is scene s pre-encoded as a binary frame asking task t;
	// a request copies it and stamps four payload bytes.
	frames     [][][]byte
	payloadOff []int // per task: the name length moves the payload
	// jsons[r] is frame r fully encoded as a JSON image body (text floats
	// cannot be stamped in place).
	jsons [][]byte
}

func newUniverse(w Workload, seed uint64, clients int) *universe {
	u := &universe{w: w, clients: clients, seed: seed, scenes: make([][]float32, scenePool)}
	for i := range u.scenes {
		img, _ := itask.GenerateScene(domains[i%len(domains)], seed*1_000_003+uint64(i))
		u.scenes[i] = img.Data
	}
	if w.Encoding == "json" {
		u.jsons = make([][]byte, w.Frames)
		for r := range u.jsons {
			body, err := json.Marshal(map[string]any{
				"task":  u.taskOf(r),
				"image": map[string]any{"shape": imageShape, "data": u.pixels(r)},
			})
			if err != nil {
				panic(err) // floats in [0,1] and strings always encode
			}
			u.jsons[r] = body
		}
		return u
	}
	u.frames = make([][][]byte, len(w.Tasks))
	u.payloadOff = make([]int, len(w.Tasks))
	for t, task := range w.Tasks {
		u.frames[t] = make([][]byte, scenePool)
		for s, data := range u.scenes {
			u.frames[t][s] = wire.AppendFrame(nil, task, "", 0, imageShape, data)
		}
		u.payloadOff[t] = len(u.frames[t][0]) - 4*imageLen
	}
	return u
}

// stamp is the value written into pixel (0,0,0) of frame r.
func stamp(r int) float32 { return float32(r) / maxRank }

// pixels materialises frame r (oracle and JSON encoding; not the hot path).
func (u *universe) pixels(r int) []float32 {
	data := append([]float32(nil), u.scenes[r%scenePool]...)
	data[0] = stamp(r)
	return data
}

// taskIndex assigns a task to a frame. With a bounded universe it is r
// modulo the task count. With unique frames, r = k*clients + client, and
// the index is chosen so that every client alternates tasks from one
// request to the next instead of being pinned to one.
func (u *universe) taskIndex(r int) int {
	if u.w.Frames == 0 {
		return (r/u.clients + r%u.clients) % len(u.w.Tasks)
	}
	return r % len(u.w.Tasks)
}

func (u *universe) taskOf(r int) string { return u.w.Tasks[u.taskIndex(r)] }

// request is one detect call. body is valid until the stream's next call.
type request struct {
	rank        int
	task        string
	tenant      string
	contentType string
	body        []byte
}

// stream is one client's deterministic request sequence: a pure function
// of (workload, seed, client index, client count).
type stream struct {
	u       *universe
	client  int
	k       int
	zipf    *chaos.ZipfStream
	scratch []byte
}

// zipfSeed derives a client's draw seed, so clients do not draw in step.
func zipfSeed(seed uint64, client int) uint64 { return seed*7919 + uint64(client) + 1 }

func (u *universe) stream(client int) *stream {
	s := &stream{u: u, client: client}
	if u.w.Frames > 0 {
		s.zipf = chaos.NewZipfStream(zipfSeed(u.seed, client), u.w.ZipfS, u.w.Frames)
	}
	return s
}

func (s *stream) next() request {
	u := s.u
	var r int
	if s.zipf != nil {
		r = s.zipf.Next()
	} else {
		r = (s.k*u.clients + s.client) % maxRank
	}
	req := request{rank: r, task: u.taskOf(r)}
	if n := len(u.w.Tenants); n > 0 {
		req.tenant = u.w.Tenants[s.k%n]
	}
	s.k++
	if u.jsons != nil {
		req.contentType, req.body = "application/json", u.jsons[r]
		return req
	}
	s.scratch = u.appendFrame(s.scratch[:0], r)
	req.contentType, req.body = wire.ContentType, s.scratch
	return req
}

// appendFrame appends frame r's binary body to dst: the pre-encoded scene,
// with the stamp written over the first payload word.
func (u *universe) appendFrame(dst []byte, r int) []byte {
	t := u.taskIndex(r)
	off := len(dst) + u.payloadOff[t]
	dst = append(dst, u.frames[t][r%scenePool]...)
	binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(stamp(r)))
	return dst
}
