package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"regexp"
	"testing"
	"time"

	"itask"
	"itask/internal/chaos"
	"itask/internal/dataset"
	"itask/internal/rcache"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// These tests start no servers and train nothing beyond a one-epoch toy
// model; they run in seconds at any GOMAXPROCS.

func testSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := loadSuite("../../bench/workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// streamDigest hashes the first n requests of every client's stream:
// bodies, tasks, tenants and content types, in order.
func streamDigest(w Workload, seed uint64, clients, n int) uint64 {
	u := newUniverse(w, seed, clients)
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		st := u.stream(c)
		for i := 0; i < n; i++ {
			r := st.next()
			h.Write(r.body)
			h.Write([]byte(r.task + "|" + r.tenant + "|" + r.contentType))
		}
	}
	return h.Sum64()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range testSuite(t).Workloads {
		if w.Frames > 64 {
			w.Frames = 64 // the property does not depend on the universe size
		}
		a, b := streamDigest(w, 7, 2, 200), streamDigest(w, 7, 2, 200)
		if a != b {
			t.Errorf("%s: same seed gave different request streams", w.Name)
		}
		if c := streamDigest(w, 8, 2, 200); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.Name)
		}
	}
}

func TestUniqueFramesNeverRepeatAndAlternateTasks(t *testing.T) {
	w, _ := testSuite(t).workload("shard_cold")
	u := newUniverse(w, 1, 2)
	seen := map[uint64]bool{}
	for c := 0; c < 2; c++ {
		st := u.stream(c)
		prev := ""
		for i := 0; i < 300; i++ {
			r := st.next()
			fr, err := wire.ParseFrame(r.body)
			if err != nil {
				t.Fatal(err)
			}
			d := rcache.DigestFrame(fr.Shape[:], fr.Payload)
			if seen[d] {
				t.Fatalf("client %d request %d repeats an earlier frame's digest", c, i)
			}
			seen[d] = true
			if r.task == prev {
				t.Fatalf("client %d sent task %s twice in a row", c, r.task)
			}
			if string(fr.Task) != r.task {
				t.Fatalf("frame header asks %q, request says %q", fr.Task, r.task)
			}
			prev = r.task
		}
	}
}

func TestZipfRanksMatchChaosStream(t *testing.T) {
	w, _ := testSuite(t).workload("fleet_zipf")
	u := newUniverse(w, 3, 2)
	for c := 0; c < 2; c++ {
		st := u.stream(c)
		ref := chaos.NewZipfStream(zipfSeed(3, c), w.ZipfS, w.Frames)
		hist, refHist := map[int]int{}, map[int]int{}
		for i := 0; i < 5000; i++ {
			hist[st.next().rank]++
			refHist[ref.Next()]++
		}
		if len(hist) != len(refHist) {
			t.Fatalf("client %d drew %d distinct ranks, chaos.ZipfStream %d", c, len(hist), len(refHist))
		}
		for r, n := range refHist {
			if hist[r] != n {
				t.Fatalf("client %d rank %d drawn %d times, chaos.ZipfStream %d", c, r, hist[r], n)
			}
		}
		if hist[0] < hist[100] {
			t.Errorf("rank 0 (%d draws) is not hotter than rank 100 (%d)", hist[0], hist[100])
		}
	}
}

// A JSON body and its binary twin must digest alike, or the two encodings
// would not share cache entries and shards the way the servers promise.
func TestJSONBodyAndFrameTwinDigestAlike(t *testing.T) {
	jw, _ := testSuite(t).workload("shard_hot_json")
	jw.Frames = 8
	fw := jw
	fw.Encoding = "frame"
	ju, fu := newUniverse(jw, 5, 1), newUniverse(fw, 5, 1)
	for r := 0; r < jw.Frames; r++ {
		var body struct {
			Task  string `json:"task"`
			Image struct {
				Shape []int     `json:"shape"`
				Data  []float32 `json:"data"`
			} `json:"image"`
		}
		if err := json.Unmarshal(ju.jsons[r], &body); err != nil {
			t.Fatal(err)
		}
		img := tensor.FromSlice(body.Image.Data, body.Image.Shape...)

		fr, err := wire.ParseFrame(fu.appendFrame(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rcache.DigestFrame(fr.Shape[:], fr.Payload), rcache.DigestImage(img); got != want {
			t.Errorf("frame %d: DigestFrame %x, DigestImage of the JSON twin %x", r, got, want)
		}
		if string(fr.Task) != body.Task {
			t.Errorf("frame %d: twin tasks differ: %q vs %q", r, fr.Task, body.Task)
		}
	}
}

func TestPercentileQuartilesAndBounds(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	for _, c := range []struct{ initial, spread, want float64 }{{0.05, 0.01, 0.05}, {0.05, 0.04, 0.12}, {0.10, 0.2, 0.25}} {
		if got := suggestBound(c.initial, c.spread); got != c.want {
			t.Errorf("suggestBound(%v, %v) = %v, want %v", c.initial, c.spread, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		attempted, failed, mismatches int
		bound                         float64
		want                          bool
	}{
		{1000, 0, 0, 0, true},
		{1000, 1, 0, 0, false},
		{1000, 4, 0, 0.005, true},
		{1000, 6, 0, 0.005, false},
		{1000, 1, 1, 0.005, false}, // a wrong answer is never within bounds
		{0, 0, 0, 0, false},
	} {
		if got := verdict(c.attempted, c.failed, c.mismatches, c.bound); got != c.want {
			t.Errorf("verdict(%d attempted, %d failed, %d mismatches, bound %v) = %v, want %v",
				c.attempted, c.failed, c.mismatches, c.bound, got, c.want)
		}
	}
}

// BENCHMARK.json and the driver must name the same metrics and workloads.
func TestManifestMatchesDriver(t *testing.T) {
	man, err := loadManifest("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(decls []metricDecl) []string {
		var names []string
		for _, d := range decls {
			if !name.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			names = append(names, d.Name)
		}
		return names
	}
	sameSet := func(what string, got, want []string) {
		t.Helper()
		seen := map[string]int{}
		for _, n := range got {
			seen[n]++
		}
		for _, n := range want {
			seen[n] += 2
		}
		for n, c := range seen {
			if c != 3 {
				t.Errorf("%s %q is in only one of BENCHMARK.json and the driver (or twice in one)", what, n)
			}
		}
	}
	sameSet("end-to-end metric", declared(man.EndToEnd), endToEndNames)
	sameSet("per-layer metric", declared(man.PerLayer), perLayerNames)
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	var inManifest, inSuite []string
	for _, w := range man.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		inManifest = append(inManifest, w.Name)
	}
	for _, w := range testSuite(t).Workloads {
		inSuite = append(inSuite, w.Name)
	}
	sameSet("workload", inManifest, inSuite)
}

func TestContractLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	man, err := loadManifest("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	res := &result{Correct: true, Attempted: 10, EndToEnd: map[string]float64{"rps": 12.5}, PerLayer: map[string]float64{"serve.exec_us": 3}}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := printContract(&out, man, res, traced); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(&out)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Fatalf("traced=%v: a key of the contract is missing", traced)
		}
		want := endToEndNames
		if traced {
			want = perLayerNames
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics on the line, want %d", traced, len(line.Metrics), len(want))
		}
		for _, n := range want {
			m, ok := line.Metrics[n]
			if !ok || m.Value == nil || m.Unit == "" {
				t.Errorf("traced=%v: metric %s missing, or without value or unit", traced, n)
			}
		}
	}
}

// toyOracle is an oracle over a pipeline trained for one epoch: enough for
// answers to exist, fast enough for tier 1.
func toyOracle(t *testing.T) *oracle {
	t.Helper()
	opts := itask.DefaultOptions()
	opts.TrainSamplesPerTask, opts.TrainCfg.Epochs = 4, 1
	pipe := itask.New(opts)
	for _, task := range dataset.StandardTasks() {
		if err := pipe.DefineTask(task.Name, task.Description); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.TrainGeneralist(nil); err != nil {
		t.Fatal(err)
	}
	o, err := oracleOver(pipe)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOracleAcceptsTheTruthAndRejectsACorruptedAnswer(t *testing.T) {
	o := toyOracle(t)
	w, _ := testSuite(t).workload("shard_cold")
	u := newUniverse(w, 1, 2)
	task := w.Tasks[0]
	truth, info, err := o.pipe.Detect(task, tensor.FromSlice(u.pixels(5), imageShape[:]...))
	if err != nil {
		t.Fatal(err)
	}
	answer := func(dets []itask.Detection, model string) sampled {
		if dets == nil {
			dets = []itask.Detection{}
		}
		raw, err := json.Marshal(dets)
		if err != nil {
			t.Fatal(err)
		}
		return sampled{req: request{rank: 5, task: task}, env: envelope{Model: model, BatchSize: 1, Detections: raw}}
	}
	if exactly, err := o.check(u, answer(truth, info.Artifact)); err != nil || !exactly {
		t.Fatalf("the oracle must hold a batch-1 answer to the exact tolerance and accept its own: exactly=%v err=%v", exactly, err)
	}
	forged := append(append([]itask.Detection(nil), truth...), itask.Detection{Class: "car", Score: 0.9, Box: itask.Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}})
	if _, err := o.check(u, answer(forged, info.Artifact)); err == nil {
		t.Error("the oracle accepted an answer with a forged detection")
	}
	if _, err := o.check(u, answer(truth, "patrol-student@v1#0")); err == nil {
		t.Error("the oracle accepted an answer from the wrong model family")
	}
	// One such answer among a thousand ops makes the run incorrect, which
	// is what makes the command exit non-zero.
	if verdict(1000, 1, 1, 0.005) {
		t.Error("a run with a mismatch passed its verdict")
	}
}

func TestMatchDetectionsTolerance(t *testing.T) {
	d := func(class string, score, x float64) itask.Detection {
		return itask.Detection{Class: class, Score: score, Box: itask.Box{X: x, Y: 0.5, W: 0.2, H: 0.2}}
	}
	want := []itask.Detection{d("car", 0.8, 0.3), d("bus", 0.6, 0.7)}
	if err := matchDetections([]itask.Detection{d("car", 0.8, 0.3), d("bus", 0.6, 0.7)}, want, exact); err != nil {
		t.Errorf("identical answers differ: %v", err)
	}
	if err := matchDetections([]itask.Detection{d("bus", 0.6, 0.7), d("car", 0.8, 0.3)}, want, exact); err != nil {
		t.Errorf("order must not matter: %v", err)
	}
	nudged := []itask.Detection{d("car", 0.83, 0.31), d("bus", 0.6, 0.7)}
	if err := matchDetections(nudged, want, exact); err == nil {
		t.Error("exact tolerance accepted a nudged score")
	}
	if err := matchDetections(nudged, want, batched); err != nil {
		t.Errorf("batched tolerance rejected a small nudge: %v", err)
	}
	if err := matchDetections(want[:1], want, batched); err != nil {
		t.Errorf("batched tolerance must allow one detection lost at the threshold: %v", err)
	}
	five := append(append([]itask.Detection(nil), want...), d("truck", 0.5, 0.1), d("van", 0.5, 0.2), d("bike", 0.5, 0.9))
	if err := matchDetections(nil, five, batched); err == nil {
		t.Error("batched tolerance accepted an answer missing five detections")
	}
	if err := matchDetections([]itask.Detection{d("truck", 0.8, 0.3), d("bus", 0.6, 0.7)}, want, exact); err == nil {
		t.Error("a wrong class was accepted")
	}
}

// The pass-through backend must change nothing about how the server treats
// its backend: it forwards every optional interface the pipeline's backend
// has and grows none it lacks.
func TestTracedBackendForwardsExactlyThePipelinesInterfaces(t *testing.T) {
	o := toyOracle(t)
	inner := o.pipe.ServeBackend()
	wrapped, err := newTracedBackend(o.pipe, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for name, implements := range map[string]func(any) bool{
		"ContextBackend":     implements[serve.ContextBackend],
		"FallbackRouter":     implements[serve.FallbackRouter],
		"VariantEvicter":     implements[serve.VariantEvicter],
		"ImageValidator":     implements[serve.ImageValidator],
		"CacheStatser":       implements[serve.CacheStatser],
		"VariantHealthSink":  implements[serve.VariantHealthSink],
		"RegistryStatser":    implements[serve.RegistryStatser],
		"RetirementNotifier": implements[serve.RetirementNotifier],
		"RouteEpocher":       implements[serve.RouteEpocher],
		"PayloadSizer":       implements[serve.PayloadSizer],
	} {
		if in, out := implements(inner), implements(wrapped); in != out {
			t.Errorf("%s: pipeline backend implements it = %v, wrapper = %v", name, in, out)
		}
	}
}

func implements[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

func TestSelfTimesAddUpToTheRequestTime(t *testing.T) {
	o := toyOracle(t)
	for _, name := range []string{"shard_cold", "shard_hot_json", "fleet_zipf"} {
		w, _ := testSuite(t).workload(name)
		if w.Frames > 16 {
			w.Frames = 16
		}
		tr, err := replay(o.pipe, newUniverse(w, 1, 2), 12)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, requests, totalUS := selfTimes(tr.spans)
		if requests != 12 {
			t.Errorf("%s: %d root spans, want 12", name, requests)
		}
		var sum float64
		names := map[string]bool{}
		for _, r := range rows {
			sum += r.SelfUS
			names[r.Name] = true
		}
		if math.Abs(sum-totalUS) > 1e-6*totalUS {
			t.Errorf("%s: self times sum to %v us, the requests took %v us", name, sum, totalUS)
		}
		for _, must := range []string{"replay.request", "wire.ReadAll", "serve.Server.Detect", "backend.forward", "wire.WriteJSON"} {
			if !names[must] {
				t.Errorf("%s: no %s span in the replay", name, must)
			}
		}
		if name == "fleet_zipf" && !names["gateway.Gateway.Detect"] {
			t.Errorf("%s: the replay did not enter through the gateway", name)
		}
		if serveSelfUS(tr.spans) <= 0 {
			t.Errorf("%s: serve.self_us is not positive", name)
		}
	}
}

func TestHostSeriesAndAdjust(t *testing.T) {
	// Two CPUs. Second 0 is quiet on both; in second 1 CPU 0's unit costs
	// double; second 2 has no samples at all (a starved probe); second 3
	// is quiet again but only CPU 1 reports.
	var samples []probeSample
	bucketsPerS := int(time.Second / probeBucket)
	add := func(sec int, cpu int32, cost float64) {
		for b := 0; b < bucketsPerS; b++ {
			for k := 0; k < 3; k++ {
				at := time.Duration(sec)*time.Second + time.Duration(b)*probeBucket + time.Duration(k+1)*time.Millisecond
				samples = append(samples, probeSample{EndNS: 1e18 + at.Nanoseconds(), CPU: cpu, CostNS: int32(cost)})
			}
		}
	}
	add(0, 0, probeQuietNS)
	add(0, 1, probeQuietNS)
	add(1, 0, 2*probeQuietNS)
	add(1, 1, probeQuietNS)
	add(3, 1, probeQuietNS)
	s := newHostSeries(samples)
	at := func(sec float64) int64 { return s.startNS + int64(sec*1e9) }
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := s.at(at(0.5)); !near(got, 1) {
		t.Errorf("quiet second: h = %v, want 1", got)
	}
	if got := s.at(at(1.5)); !near(got, 1.5) {
		t.Errorf("one CPU of two at double cost: h = %v, want 1.5 (the CPUs weigh alike)", got)
	}
	if got := s.at(at(2.1)); !near(got, 1.5) {
		t.Errorf("gap, near side of the busy second: h = %v, want 1.5", got)
	}
	if got := s.at(at(2.9)); !near(got, 1) {
		t.Errorf("gap, near side of the quiet second: h = %v, want 1", got)
	}
	if got := s.at(at(-5)); !near(got, 1) {
		t.Errorf("before the first sample: h = %v, want the first bucket's", got)
	}
	if got := s.over(at(0), at(2)); !near(got, 1.25) {
		t.Errorf("mean over a quiet and a busy second = %v, want 1.25", got)
	}
	// A CPU-bound second at h = 1.5 is two thirds of a quiet second.
	if got := s.quiet(at(0), at(2)); !near(got, 1+1/1.5) {
		t.Errorf("quiet-host length of seconds 0..2 = %v, want %v", got, 1+1/1.5)
	}
	if s.minNS != probeQuietNS || s.samples != len(samples) {
		t.Errorf("minNS %v samples %d", s.minNS, s.samples)
	}

	// No probe: every factor is 1 and every figure stays as measured.
	none := newHostSeries(nil)
	if none.at(123) != 1 || none.over(1, 2) != 1 || !near(none.quiet(0, 3e9), 3) {
		t.Error("an empty series must leave figures as measured")
	}

	// adjust: the timer wait stays, the rest is divided by h.
	for _, c := range []struct{ measured, wait, h, want float64 }{
		{3600, 2200, 1, 3600},
		{4300, 2200, 1.5, 2200 + 2100/1.5},
		{900, 0, 1.5, 600},
		{900, 1200, 1.5, 900}, // a wait longer than the whole is clamped
		{900, -5, 2, 450},
	} {
		if got := adjust(c.measured, c.wait, c.h); !near(got, c.want) {
			t.Errorf("adjust(%v, %v, %v) = %v, want %v", c.measured, c.wait, c.h, got, c.want)
		}
	}
}

func TestSliceFiguresAdjustPerClientAndPerMoment(t *testing.T) {
	// One slice of one second, two clients. The host is quiet in its first
	// half and twice as dear in its second.
	var samples []probeSample
	for ms := int64(1); ms < 1000; ms += 5 {
		cost := probeQuietNS
		if ms >= 500 {
			cost = 2 * probeQuietNS
		}
		samples = append(samples, probeSample{EndNS: 1e18 + ms*1e6, CPU: 0, CostNS: int32(cost)})
	}
	host := newHostSeries(samples)
	ph := newPhase()
	// Client 0: 100 answers of 5 ms, no timer wait, all in the quiet half.
	// Client 1: 50 answers of 10 ms in the dear half, 4 ms of each a timer
	// wait, and one failed op of 10 ms that counts as time but not answer.
	for i := 0; i < 100; i++ {
		end := host.startNS + int64(i)*5e6
		ph.ops = append(ph.ops, op{client: 0, ok: true, endNS: end, cycleUS: 5000})
		ph.samples = append(ph.samples, sample{endNS: end, latencyUS: 5000})
	}
	for i := 0; i < 50; i++ {
		end := host.startNS + 500e6 + int64(i)*10e6
		ph.ops = append(ph.ops, op{client: 1, ok: true, endNS: end, cycleUS: 10000, queuedUS: 4000})
		ph.samples = append(ph.samples, sample{endNS: end, latencyUS: 10000, queuedUS: 4000})
	}
	ph.ops = append(ph.ops, op{client: 1, endNS: host.startNS + 990e6, cycleUS: 10000})
	sl := timedSlice{
		samples: [2]int{0, len(ph.samples)}, ops: [2]int{0, len(ph.ops)},
		cpuS: 0.3, fromNS: host.startNS, toNS: host.startNS + 1e9,
	}
	raw, quiet := sl.figures(ph, 2, nil), sl.figures(ph, 2, host)
	if math.Abs(raw.rps-150) > 1e-9 || math.Abs(raw.cpuUSPerReq-2000) > 1e-9 || raw.p95MS != 10 {
		t.Errorf("as measured: %+v", raw)
	}
	// Client 0 is untouched: 100 answers in 0.5 s. Client 1's turns shrink
	// to 4 + 6/2 = 7 ms, the failed one to 5 ms: 50 answers in 0.355 s.
	wantRPS := 100/0.5 + 50/(50*0.007+0.005)
	if math.Abs(quiet.rps-wantRPS) > 1e-6 {
		t.Errorf("quiet-host rps = %v, want %v", quiet.rps, wantRPS)
	}
	if math.Abs(quiet.p95MS-7) > 1e-9 {
		t.Errorf("quiet-host p95 = %v ms, want 7", quiet.p95MS)
	}
	// CPU over the slice's mean factor, 1.5.
	if math.Abs(quiet.cpuUSPerReq-2000/1.5) > 1e-6 {
		t.Errorf("quiet-host cpu = %v, want %v", quiet.cpuUSPerReq, 2000/1.5)
	}
}
