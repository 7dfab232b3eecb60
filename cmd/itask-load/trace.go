package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itask"
	"itask/internal/gateway"
	"itask/internal/rcache"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root). Spans
// are taken from the benchmark's own files, around the calls into each
// layer; spans inside the servers are a later change.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Req    uint64         `json:"req"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the tracer's epoch
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`

	tr *tracer
}

// tracer hands out span IDs and keeps finished replay spans in memory
// until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// open is the stack of unfinished replay spans. The replay runs one
	// request at a time, so the innermost open span is the parent of
	// whatever starts next — including the pass-through backend's span,
	// which starts on a serve worker goroutine with no request handle.
	open []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name string, parent *span) *span {
	s := &span{ID: t.ids.Add(1), Name: name, Start: int64(time.Since(t.epoch)), tr: t}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	} else {
		s.Req = s.ID
	}
	return s
}

func (s *span) finish() { s.End = int64(time.Since(s.tr.epoch)) }

// enter starts a replay span under the innermost open one.
func (t *tracer) enter(name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent *span
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := t.start(name, parent)
	t.open = append(t.open, s)
	return s
}

// leave finishes the innermost open span, which must be s, and keeps it.
func (t *tracer) leave(s *span) {
	s.finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != s {
		panic("itask-load: replay spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans = append(t.spans, *s)
}

// pipelineBackend is every interface of internal/serve/backend.go the
// pipeline's backend implements. The pass-through wrapper embeds it, so it
// forwards each of them and adds none (it must not grow a
// DetectBatchContext the pipeline lacks, or the server would change path).
type pipelineBackend interface {
	serve.Backend
	serve.FallbackRouter
	serve.VariantEvicter
	serve.ImageValidator
	serve.CacheStatser
	serve.VariantHealthSink
	serve.RegistryStatser
	serve.RetirementNotifier
	serve.RouteEpocher
	serve.PayloadSizer
}

// tracedBackend is the benchmark-owned pass-through backend: DetectBatch is
// the backend.forward span, everything else is the pipeline's own method.
type tracedBackend struct {
	pipelineBackend
	tr *tracer
}

func newTracedBackend(pipe *itask.Pipeline, tr *tracer) (*tracedBackend, error) {
	inner, ok := pipe.ServeBackend().(pipelineBackend)
	if !ok {
		return nil, fmt.Errorf("the pipeline's serve backend no longer implements every interface the bench wrapper forwards; update pipelineBackend in cmd/itask-load/trace.go")
	}
	return &tracedBackend{pipelineBackend: inner, tr: tr}, nil
}

func (b *tracedBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	s := b.tr.enter("backend.forward")
	payloads, model, err := b.pipelineBackend.DetectBatch(variant, task, imgs)
	s.Attrs = map[string]any{"batch_size": len(imgs), "model": model}
	b.tr.leave(s)
	return payloads, model, err
}

// tracedNode puts the serve.Server.Detect span under gateway.Gateway.Detect.
type tracedNode struct {
	*gateway.ServeNode
	tr *tracer
}

func (n tracedNode) Detect(ctx context.Context, req serve.Request) (serve.Result, error) {
	s := n.tr.enter("serve.Server.Detect")
	res, err := n.ServeNode.Detect(ctx, req)
	n.tr.leave(s)
	return res, err
}

// discardResponse is the http.ResponseWriter wire.WriteJSON encodes into
// during the replay; the bytes go nowhere, as they would into a socket.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header       { return d.h }
func (discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (discardResponse) WriteHeader(int)             {}

// replayResponse mirrors cmd/itask-serve's detectResponse, so WriteJSON
// encodes what the real handler encodes.
type replayResponse struct {
	Task       string            `json:"task"`
	Model      string            `json:"model"`
	BatchSize  int               `json:"batch_size"`
	QueuedUS   float64           `json:"queued_us"`
	TotalUS    float64           `json:"total_us"`
	Cached     bool              `json:"cached,omitempty"`
	Coalesced  bool              `json:"coalesced,omitempty"`
	Detections []itask.Detection `json:"detections"`
}

// replay pushes the first n requests of client 0's stream through the
// layers' exported functions in path order, one request at a time, each
// call a span under the request's root. It uses the servers' defaults
// (serve.DefaultConfig plus itask-serve's cache flags) and the workload's
// declared settings, so a request meets the same batcher, cache and
// scheduler as in the live run — alone.
func replay(pipe *itask.Pipeline, u *universe, n int) (*tracer, error) {
	tr := newTracer()
	backend, err := newTracedBackend(pipe, tr)
	if err != nil {
		return nil, err
	}
	cfg := serve.DefaultConfig()
	cfg.CacheBytes, cfg.CacheTTL, cfg.Coalesce = 32<<20, time.Minute, true
	cfg.HotThreshold, cfg.HotBytes = 64, 4<<20
	if t := u.w.ServeHotThreshold; t != nil {
		cfg.HotThreshold = *t
	}
	cfg.TenantWeights = u.w.TenantWeights
	var servers []*serve.Server
	newServer := func() (*serve.Server, error) {
		srv, err := serve.New(backend, cfg)
		if err == nil {
			servers = append(servers, srv)
		}
		return srv, err
	}
	defer func() {
		for _, srv := range servers {
			_ = srv.Shutdown(context.Background()) // nothing is in flight: the replay is sequential
		}
	}()

	var detect func(ctx context.Context, req serve.Request) (serve.Result, error)
	fleet := u.w.Topology == "fleet"
	if fleet {
		gcfg := gateway.DefaultConfig()
		if t := u.w.GatewayHotThreshold; t != nil {
			gcfg.HotThreshold = *t
		}
		gw, err := gateway.New(gcfg)
		if err != nil {
			return nil, err
		}
		defer gw.Close()
		for i := 0; i < 2; i++ {
			srv, err := newServer()
			if err != nil {
				return nil, err
			}
			node, err := gateway.NewServeNode(fmt.Sprintf("replay-shard-%d", i), srv, pipe.Registry())
			if err != nil {
				return nil, err
			}
			if err := gw.AddNode(tracedNode{ServeNode: node, tr: tr}); err != nil {
				return nil, err
			}
		}
		detect = func(ctx context.Context, req serve.Request) (serve.Result, error) {
			s := tr.enter("gateway.Gateway.Detect")
			res, err := gw.Detect(ctx, req)
			tr.leave(s)
			return res.Result, err
		}
	} else {
		srv, err := newServer()
		if err != nil {
			return nil, err
		}
		detect = func(ctx context.Context, req serve.Request) (serve.Result, error) {
			s := tr.enter("serve.Server.Detect")
			res, err := srv.Detect(ctx, req)
			tr.leave(s)
			return res, err
		}
	}

	ctx := context.Background()
	st := u.stream(0)
	for i := 0; i < n; i++ {
		r := st.next()
		root := tr.enter("replay.request")

		s := tr.enter("wire.ReadAll")
		buf, err := wire.ReadAll(bytes.NewReader(r.body), len(r.body))
		tr.leave(s)
		if err != nil {
			return nil, err
		}

		img := tensor.New(imageShape[:]...)
		if u.jsons != nil {
			s = tr.enter("json.decode")
			var body struct {
				Image struct {
					Data []float32 `json:"data"`
				} `json:"image"`
			}
			err = json.Unmarshal(buf.Bytes(), &body)
			img.Data = body.Image.Data
			tr.leave(s)
			if err != nil {
				return nil, err
			}
		} else {
			s = tr.enter("wire.ParseFrame")
			fr, err := wire.ParseFrame(buf.Bytes())
			if err == nil {
				wire.Float32s(fr.Payload, img.Data)
			}
			tr.leave(s)
			if err != nil {
				return nil, err
			}
			if fleet {
				// Only the gateway's door hashes the raw payload (its route
				// key); a shard digests inside serve.Server.Detect.
				s = tr.enter("rcache.DigestFrame")
				_ = rcache.DigestFrame(fr.Shape[:], fr.Payload)
				tr.leave(s)
			}
		}
		buf.Release()

		res, err := detect(ctx, serve.Request{Task: r.task, Tenant: r.tenant, Image: img})
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", i, err)
		}

		s = tr.enter("wire.WriteJSON")
		dets, _ := res.Payload.([]itask.Detection)
		wire.WriteJSON(discardResponse{h: http.Header{}}, http.StatusOK, replayResponse{
			Task: r.task, Model: res.Model, BatchSize: res.BatchSize,
			QueuedUS: float64(res.Queued.Microseconds()), TotalUS: float64(res.Total.Microseconds()),
			Cached: res.Cached, Coalesced: res.Coalesced, Detections: dets,
		})
		tr.leave(s)
		root.Attrs = map[string]any{"rank": r.rank, "task": r.task, "cached": res.Cached}
		tr.leave(root)
	}
	return tr, nil
}

// selfRow is one layer's line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	SelfUS  float64 `json:"self_us_total"`
	PerReq  float64 `json:"self_us_per_request"`
	Share   float64 `json:"share"`
	P50Self float64 `json:"self_us_p50"`
}

// selfTimes computes each span's self time — its duration minus what its
// children cover — and sums it by span name. Children of one parent never
// overlap here (the replay is sequential), so the rows add up to the total
// time of the root spans.
func selfTimes(spans []span) (rows []selfRow, requests int, totalUS float64) {
	childNS := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string][]float64{}
	for _, s := range spans {
		self := float64(s.End-s.Start-childNS[s.ID]) / 1e3
		byName[s.Name] = append(byName[s.Name], self)
		if s.Parent == 0 {
			requests++
			totalUS += float64(s.End-s.Start) / 1e3
		}
	}
	for name, selfs := range byName {
		var sum float64
		for _, v := range selfs {
			sum += v
		}
		rows = append(rows, selfRow{
			Name: name, Spans: len(selfs), SelfUS: sum,
			PerReq: sum / float64(max(requests, 1)), Share: sum / totalUS,
			P50Self: percentile(sortedCopy(selfs), 0.5),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUS > rows[j].SelfUS })
	return rows, requests, totalUS
}

// serveSelfUS is the median, over replayed requests that reached the
// backend, of the serve.Server.Detect span minus its backend.forward child:
// what the serving layer itself adds to an executed request.
func serveSelfUS(spans []span) float64 {
	forward := map[uint64]int64{} // request -> backend.forward time
	for _, s := range spans {
		if s.Name == "backend.forward" {
			forward[s.Req] += s.End - s.Start
		}
	}
	var selfs []float64
	for _, s := range spans {
		if f, ok := forward[s.Req]; ok && s.Name == "serve.Server.Detect" {
			selfs = append(selfs, float64(s.End-s.Start-f)/1e3)
		}
	}
	return percentile(sortedCopy(selfs), 0.5)
}

func printSelfTable(w io.Writer, rows []selfRow, requests int, totalUS float64) {
	fmt.Fprintf(w, "  replay self time per layer (%d requests, %.1f us per request):\n", requests, totalUS/float64(max(requests, 1)))
	fmt.Fprintf(w, "    %-26s %8s %12s %10s %7s\n", "span", "spans", "us/request", "p50 us", "share")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "    %-26s %8d %12.2f %10.2f %6.1f%%\n", r.Name, r.Spans, r.PerReq, r.P50Self, 100*r.Share)
		sum += r.PerReq
	}
	fmt.Fprintf(w, "    %-26s %8s %12.2f\n", "sum of rows", "", sum)
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Env        envInfo   `json:"env"`
	LiveSpans  []span    `json:"live_spans"`
	Replay     []span    `json:"replay_spans"`
	SelfTimes  []selfRow `json:"replay_self_times"`
	TracedRPS  float64   `json:"traced_rps"`
	BaseRPS    float64   `json:"untraced_rps"`
	RPSRatio   float64   `json:"traced_over_untraced_rps"`
	ReplayedUS float64   `json:"replay_total_us"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := dir + "/trace_" + tf.Workload + ".json"
	raw, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
