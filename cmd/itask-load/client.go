package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// requestTimeout makes a hung server a failed op instead of a stuck
// benchmark (ROADMAP: tensor.ParallelFor can deadlock a nested dispatch).
const requestTimeout = 15 * time.Second

// oracleEvery is the sampling stride of the full oracle comparison. Every
// answer is checked for shape, model family and cache consistency; every
// oracleEvery-th is also re-computed in process.
const oracleEvery = 64

// outcome classes of one op. The load generator never retries.
const (
	outOK = iota
	out4xx
	out429
	out5xx
	outTransport
	outTimeout
	outMismatch
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"200", "4xx", "429", "5xx", "transport", "timeout", "mismatch"}

// envelope is the part of a detect response the generator reads on every
// answer; the detections stay raw unless the answer is sampled.
type envelope struct {
	Model      string          `json:"model"`
	BatchSize  int             `json:"batch_size"`
	QueuedUS   float64         `json:"queued_us"`
	TotalUS    float64         `json:"total_us"`
	Cached     bool            `json:"cached"`
	Coalesced  bool            `json:"coalesced"`
	Detections json.RawMessage `json:"detections"`
}

// sample is one correct answer's timings, as seen from outside the servers.
type sample struct {
	endNS     int64   // Unix nanoseconds at the last byte: where h(t) is read
	latencyUS float64 // client-observed
	totalUS   float64 // the answering shard's admission-to-completion time
	queuedUS  float64
	cached    bool
	coalesced bool
	attempts  int // X-Itask-Attempts; 0 without a gateway
}

// sampled is an answer kept whole for the in-process oracle.
type sampled struct {
	req    request // body dropped; rank, task kept
	env    envelope
	sample int // index of this answer's entry in the phase's samples
}

// answerKey identifies answers that must be byte-identical: one frame asked
// one task, computed by one model version, remembered by one shard's cache.
type answerKey struct {
	rank  int
	model string
	shard string
}

// consistency is shared by every client and outlives the phases of a run,
// so an answer cached during warm-up is still held to its first form.
type consistency struct {
	mu    sync.Mutex
	first map[answerKey]uint64 // hash of the first detections seen
	// byShard counts, per frame, the answers each shard gave without the
	// gateway calling the frame hot.
	byShard map[int]map[string]int
}

func newConsistency() *consistency {
	return &consistency{first: map[answerKey]uint64{}, byShard: map[int]map[string]int{}}
}

// offHome is how many answers came from a shard other than their frame's
// usual one. A frame's ring owner answers it unless the gateway spills it
// past a loaded owner or fails over, so offHome can never exceed the
// gateway's spills+retries; the response does not say which answers those
// were, only the counters do.
func (c *consistency) offHome() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, shards := range c.byShard {
		total, most := 0, 0
		for _, answers := range shards {
			total += answers
			most = max(most, answers)
		}
		n += total - most
	}
	return n
}

// observe records an answer and reports whether it contradicts an earlier
// answer for the same key.
func (c *consistency) observe(k answerKey, detections []byte, hot bool) (consistent bool) {
	h := fnv.New64a()
	h.Write(detections)
	sum := h.Sum64()
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.shard != "" && !hot {
		if c.byShard[k.rank] == nil {
			c.byShard[k.rank] = map[string]int{}
		}
		c.byShard[k.rank][k.shard]++
	}
	if prev, ok := c.first[k]; ok {
		return prev == sum
	}
	c.first[k] = sum
	return true
}

// op is one turn of a client's closed loop, whatever came of it: the time
// from the top of the loop to the top of the next (cycleUS), of which the
// answering shard says queuedUS was spent waiting for a batch to close.
type op struct {
	client   int
	ok       bool // a correct detect answer: what rps counts
	endNS    int64
	cycleUS  float64
	queuedUS float64
}

// phase is what one client gathered during one segment.
type phase struct {
	outcomes  [numOutcomes]int
	ops       []op
	samples   []sample
	sampled   []sampled
	reloadsMS []float64
	models    map[string]int // model name (before '@') -> answers
	shards    map[string]int // X-Itask-Shard -> answers
	firstErr  string
	spans     []span
}

func (p *phase) merge(q *phase) {
	for i, n := range q.outcomes {
		p.outcomes[i] += n
	}
	for _, a := range q.sampled {
		a.sample += len(p.samples)
		p.sampled = append(p.sampled, a)
	}
	p.samples = append(p.samples, q.samples...)
	p.ops = append(p.ops, q.ops...)
	p.reloadsMS = append(p.reloadsMS, q.reloadsMS...)
	for k, n := range q.models {
		p.models[k] += n
	}
	for k, n := range q.shards {
		p.shards[k] += n
	}
	if p.firstErr == "" {
		p.firstErr = q.firstErr
	}
	p.spans = append(p.spans, q.spans...)
}

func newPhase() *phase { return &phase{models: map[string]int{}, shards: map[string]int{}} }

func (p *phase) attempted() int {
	n := 0
	for _, c := range p.outcomes {
		n += c
	}
	return n
}

func (p *phase) failed() int { return p.attempted() - p.outcomes[outOK] }

func (p *phase) fail(class int, detail string) {
	p.outcomes[class]++
	if p.firstErr == "" {
		p.firstErr = outcomeNames[class] + ": " + detail
	}
}

// loadgen drives one rig with a closed loop: every client goroutine owns
// one keep-alive connection and sends its next request only after the
// previous answer arrived, which is how callers of /v1/detect behave.
type loadgen struct {
	hc      *http.Client
	streams []*stream
	cons    *consistency
	// family maps a task to the model name that must answer it.
	family      map[string]string
	unique      bool // every frame new: nothing to hold consistent
	reloadEvery time.Duration
	lastReload  time.Time
	tracer      *tracer
	answersSeen []int // per client, for the oracle stride
	detectURL   string
	reloadURL   string
	bodyBufs    []bytes.Buffer // per client, reused for response bodies
}

func newLoadgen(target string, u *universe, family map[string]string) *loadgen {
	g := &loadgen{
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: u.clients,
				DisableCompression:  true,
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			},
		},
		cons:        newConsistency(),
		family:      family,
		unique:      u.w.Frames == 0,
		reloadEvery: time.Duration(u.w.ReloadEveryMS) * time.Millisecond,
		lastReload:  time.Now(),
		answersSeen: make([]int, u.clients),
		detectURL:   target + "/v1/detect",
		reloadURL:   target + "/v1/models/reload",
		bodyBufs:    make([]bytes.Buffer, u.clients),
	}
	for c := 0; c < u.clients; c++ {
		g.streams = append(g.streams, u.stream(c))
	}
	return g
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// run drives every client for d and returns what they gathered. With a
// tracer, each request also leaves a client.request span and its
// http.roundtrip child.
func (g *loadgen) run(ctx context.Context, d time.Duration, tr *tracer) *phase {
	g.tracer = tr
	deadline := time.Now().Add(d)
	parts := make([]*phase, len(g.streams))
	var wg sync.WaitGroup
	for c := range g.streams {
		parts[c] = newPhase()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := parts[c]
			for top := time.Now(); top.Before(deadline) && ctx.Err() == nil; {
				o := op{client: c}
				if c == 0 && g.reloadEvery > 0 && time.Since(g.lastReload) >= g.reloadEvery {
					g.reload(ctx, p)
				} else if n := len(p.samples); g.detect(ctx, c, p) {
					o.ok, o.queuedUS = true, p.samples[n].queuedUS
				}
				next := time.Now()
				o.endNS, o.cycleUS = next.UnixNano(), float64(next.Sub(top).Nanoseconds())/1e3
				p.ops = append(p.ops, o)
				top = next
			}
		}()
	}
	wg.Wait()
	all := newPhase()
	for _, p := range parts {
		all.merge(p)
	}
	return all
}

// reload is client 0's write beside the reads. lastReload is only touched
// by client 0.
func (g *loadgen) reload(ctx context.Context, p *phase) {
	start := time.Now()
	g.lastReload = start
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.reloadURL, nil)
	if err != nil {
		p.fail(outTransport, err.Error())
		return
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		p.fail(classOfErr(err), err.Error())
		return
	}
	body, _ := io.ReadAll(resp.Body) // a short read shows up as a non-200 or an odd body below
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.fail(classOfStatus(resp.StatusCode), "reload: "+string(body))
		return
	}
	p.outcomes[outOK]++
	p.reloadsMS = append(p.reloadsMS, float64(time.Since(start).Microseconds())/1e3)
}

// detect is one request; it reports whether a correct answer joined
// p.samples.
func (g *loadgen) detect(ctx context.Context, c int, p *phase) bool {
	var root, rt *span
	if g.tracer != nil {
		root = g.tracer.start("client.request", nil)
	}
	r := g.streams[c].next()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.detectURL, bytes.NewReader(r.body))
	if err != nil {
		p.fail(outTransport, err.Error())
		return false
	}
	req.Header.Set("Content-Type", r.contentType)
	if r.tenant != "" {
		req.Header.Set("X-Itask-Tenant", r.tenant)
	}
	if root != nil {
		rt = g.tracer.start("http.roundtrip", root)
	}
	start := time.Now()
	resp, err := g.hc.Do(req)
	if err != nil {
		p.fail(classOfErr(err), err.Error())
		return false
	}
	buf := &g.bodyBufs[c]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	latency := end.Sub(start)
	if rt != nil {
		rt.finish()
	}
	if err != nil {
		p.fail(classOfErr(err), err.Error())
		return false
	}
	if resp.StatusCode != http.StatusOK {
		p.fail(classOfStatus(resp.StatusCode), strconv.Itoa(resp.StatusCode)+" "+buf.String())
		return false
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil || env.Detections == nil {
		p.fail(outMismatch, "undecodable answer: "+buf.String())
		return false
	}
	name := modelName(env.Model)
	if want := g.family[r.task]; name != want {
		p.fail(outMismatch, "task "+r.task+" answered by "+env.Model+", want "+want)
		return false
	}
	shard := resp.Header.Get("X-Itask-Shard")
	hot := resp.Header.Get("X-Itask-Hot") == "1"
	if !g.unique && !g.cons.observe(answerKey{r.rank, env.Model, shard}, env.Detections, hot) {
		p.fail(outMismatch, "frame "+strconv.Itoa(r.rank)+" answered differently than before by "+env.Model)
		return false
	}
	attempts, _ := strconv.Atoi(resp.Header.Get("X-Itask-Attempts")) // absent without a gateway: 0
	p.outcomes[outOK]++
	p.samples = append(p.samples, sample{
		endNS: end.UnixNano(), latencyUS: float64(latency.Nanoseconds()) / 1e3,
		totalUS: env.TotalUS, queuedUS: env.QueuedUS,
		cached: env.Cached, coalesced: env.Coalesced, attempts: attempts,
	})
	p.models[name]++
	if shard != "" {
		p.shards[shard]++
	}
	g.answersSeen[c]++
	if g.answersSeen[c]%oracleEvery == 0 {
		// RawMessage aliases the reused body buffer.
		env.Detections = append(json.RawMessage(nil), env.Detections...)
		r.body = nil
		p.sampled = append(p.sampled, sampled{req: r, env: env, sample: len(p.samples) - 1})
	}
	if root != nil {
		root.Attrs = map[string]any{
			"queued_us": env.QueuedUS, "total_us": env.TotalUS, "batch_size": env.BatchSize,
			"cached": env.Cached, "coalesced": env.Coalesced, "shard": shard, "attempts": attempts,
		}
		root.finish()
		p.spans = append(p.spans, *root, *rt)
	}
	return true
}

// modelName strips the version and checksum from "name@vN#sum".
func modelName(model string) string {
	name, _, _ := strings.Cut(model, "@")
	return name
}

func classOfStatus(code int) int {
	switch {
	case code == http.StatusTooManyRequests:
		return out429
	case code >= 500:
		return out5xx
	default:
		return out4xx
	}
}

func classOfErr(err error) int {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return outTimeout
	}
	return outTransport
}
