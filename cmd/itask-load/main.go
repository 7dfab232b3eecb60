// Command itask-load is the repository's one live end-to-end benchmark of
// the detect path. For each declared workload (bench/workloads.json) it
// boots fresh itask-serve / itask-gateway processes built from the tree,
// running the real pipeline with default flags and default GOMAXPROCS,
// drives them with a closed loop from this one process, checks answers
// against an in-process oracle, and prints every end-to-end and per-layer
// metric by name with its unit. bench/README.md defines the metrics.
//
// Contract mode (what BENCHMARK.json's command runs; the last line of
// standard output is one JSON object):
//
//	itask-load -workload shard_cold -seed 1 -seconds 16 -trace 0
//
// Human mode:
//
//	itask-load -all [-seconds 30] [-trace 1] [-repeat N] [-quick]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The metric names are the contract with BENCHMARK.json; a test holds the
// two lists equal.
var endToEndNames = []string{"setup_s", "rps", "p50_ms", "p95_ms", "cpu_us_per_req"}

var perLayerNames = []string{
	"wire.readall_us", "wire.parse_frame_us", "wire.write_json_us",
	"door.overhead_us",
	"rcache.digest_us", "rcache.get_hit_ns", "rcache.put_us",
	"rcache.hit_share", "rcache.hot_hit_share", "rcache.evictions", "rcache.hot_promotions",
	"serve.queue_wait_us", "serve.exec_us", "serve.mean_batch", "serve.coalesced_share", "serve.shed", "serve.self_us",
	"fair.pushpop_ns", "fair.rejected_budget",
	"sched.route_ns", "sched.model_cache_hit_share", "registry.resolve_ns",
	"registry.reload_ms", "registry.publishes",
	"quant.forward_us_b1", "quant.forward_us_b8", "quant.allocs_b1", "quant.macs_per_image",
	"vit.forward_us_b1", "vit.forward_us_b8", "vit.allocs_b1",
	"tensor.matmul_gflops", "tensor.pool_workers", "kernels.doti8_gops", "kernels.hash_gbps",
	"gateway.overhead_us", "gateway.route_ns", "gateway.attempts_mean", "gateway.spill_share",
	"gateway.hot_routed_share", "gateway.ejections", "gateway.shard_imbalance",
	"member.expirations",
	"kg.define_task_ms", "distill.train_zoo_s",
	"scene.render_us", "loadgen.cpu_share",
	"client.p99_ms", "proc.rss_peak_mb",
	"trace.rps_ratio",
	"host.factor", "host.probe_samples",
	"raw.setup_s", "raw.rps", "raw.p50_ms", "raw.p95_ms", "raw.cpu_us_per_req",
}

// manifest is the part of BENCHMARK.json the driver reads: units, better
// directions and regression bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *manifest) decl(name string) metricDecl {
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if d.Name == name {
			return d
		}
	}
	return metricDecl{Name: name}
}

// envInfo is recorded in every output.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnv(clients int) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// bench is one invocation's shared state: binaries, the trained zoo, the
// oracle over it.
type bench struct {
	suite    *Suite
	manifest *manifest
	binDir   string
	workDir  string // removed on exit
	outDir   string
	env      envInfo

	zooDir string
	// trainS is the zoo training as timed; trainQuietS the same with the
	// host factor taken out (see probe.go).
	trainS, trainQuietS float64
	oracle              *oracle
}

type options struct {
	workload                                     string
	seed                                         uint64
	seconds                                      float64
	trace, all, quick, keep                      bool
	repeat                                       int
	binDir, workRoot, outDir, suitePath, manPath string
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run this one workload and print the contract's JSON result as the last line")
	flag.Uint64Var(&opt.seed, "seed", 1, "drives frame content and zipf draws")
	flag.Float64Var(&opt.seconds, "seconds", 30, "timed segment length")
	trace := flag.Int("trace", 0, "1 traces every other one-second slice and adds the in-process replay and the per-layer call timings")
	flag.BoolVar(&opt.all, "all", false, "run every declared workload and print every metric")
	flag.IntVar(&opt.repeat, "repeat", 1, "with -all: run the whole set N times (seed, seed+1, ...) and print median and quartiles")
	flag.BoolVar(&opt.quick, "quick", false, "with -all: 1 s warm-up, 3 s segments, no trace (harness smoke)")
	flag.StringVar(&opt.binDir, "bin", "", "directory holding itask-serve, itask-gateway and itask-train (default: build them from the tree)")
	flag.StringVar(&opt.workRoot, "work", ".bench_build", "scratch root for the zoo, logs and built binaries")
	flag.BoolVar(&opt.keep, "keep", false, "keep the run's scratch directory (zoo, server logs) instead of removing it")
	flag.StringVar(&opt.outDir, "out", "bench/out", "where trace files go")
	flag.StringVar(&opt.suitePath, "workloads", "bench/workloads.json", "workload declarations")
	flag.StringVar(&opt.manPath, "manifest", "BENCHMARK.json", "metric declarations and bounds")
	flag.BoolVar(&hostProbeOn, "hostprobe", true, "measure the host factor beside the servers and report figures with it taken out; false reports them as measured")
	probe := flag.Bool("probe", false, "internal: run as the host probe child (see probe.go)")
	flag.Parse()
	if *probe {
		if err := probeMain(); err != nil {
			fmt.Fprintln(os.Stderr, "itask-load probe:", err)
			os.Exit(1)
		}
		return
	}
	opt.trace = *trace == 1
	if (opt.workload == "") == !opt.all {
		fmt.Fprintln(os.Stderr, "itask-load: give exactly one of -workload NAME and -all")
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code, err := run(ctx, opt)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "itask-load:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run is main without os.Exit, so deferred clean-up (children killed, work
// directory removed) happens on every path.
func run(ctx context.Context, opt options) (int, error) {
	suite, err := loadSuite(opt.suitePath)
	if err != nil {
		return 0, err
	}
	man, err := loadManifest(opt.manPath)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(opt.workRoot, 0o755); err != nil {
		return 0, err
	}
	workDir, err := os.MkdirTemp(opt.workRoot, "run-")
	if err != nil {
		return 0, err
	}
	if opt.keep {
		fmt.Fprintln(os.Stderr, "itask-load: keeping", workDir)
	} else {
		defer os.RemoveAll(workDir)
	}
	b := &bench{
		suite: suite, manifest: man, binDir: opt.binDir, workDir: workDir, outDir: opt.outDir,
		env: readEnv(min(runtime.NumCPU(), 4)),
	}
	if b.binDir == "" {
		if err := b.build(ctx); err != nil {
			return 0, err
		}
	}
	if b.binDir, err = filepath.Abs(b.binDir); err != nil {
		return 0, err
	}
	fmt.Printf("itask-load: nproc=%d GOMAXPROCS=%d C=%d cpu=%q go=%s commit=%s\n",
		b.env.NProc, b.env.GOMAXPROCS, b.env.Clients, b.env.CPUModel, b.env.GoVersion, b.env.Commit)
	if err := b.trainZoo(ctx); err != nil {
		return 0, err
	}

	if opt.workload != "" {
		w, ok := suite.workload(opt.workload)
		if !ok {
			return 0, fmt.Errorf("no workload %q in %s", opt.workload, opt.suitePath)
		}
		res, err := b.runWorkload(ctx, w, opt.seed, time.Duration(opt.seconds*float64(time.Second)), opt.trace)
		if err != nil {
			return 0, err
		}
		b.printResult(os.Stdout, res)
		return 0, printContract(os.Stdout, b.manifest, res, opt.trace)
	}

	segment := time.Duration(opt.seconds * float64(time.Second))
	if opt.quick {
		segment, opt.trace = 3*time.Second, false
	}
	var runs [][]*result
	failed := false
	for i := 0; i < max(opt.repeat, 1); i++ {
		var set []*result
		for _, w := range suite.Workloads {
			res, err := b.runWorkload(ctx, w, opt.seed+uint64(i), segment, opt.trace)
			if err != nil {
				return 0, err
			}
			b.printResult(os.Stdout, res)
			failed = failed || !res.Correct
			set = append(set, res)
		}
		runs = append(runs, set)
	}
	if len(runs) > 1 {
		b.printRepeat(os.Stdout, runs)
	}
	if failed {
		fmt.Println("itask-load: FAILED: a workload answered wrongly or failed more ops than its bound")
		return 1, nil
	}
	return 0, nil
}

// build compiles the servers from the tree the benchmark runs in. It is
// not part of setup_s.
func (b *bench) build(ctx context.Context) error {
	b.binDir = filepath.Join(b.workDir, "bin")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", b.binDir+string(filepath.Separator),
		"./cmd/itask-serve", "./cmd/itask-gateway", "./cmd/itask-train")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the servers: %w", err)
	}
	return nil
}

// trainZoo trains the shared model zoo once with itask-train, then drops
// the declared students from the work copy so that the remaining tasks'
// students (float vit/nn/tensor path) and the dropped tasks' fallback, the
// quantized generalist (quant/kernels path), both serve traffic.
func (b *bench) trainZoo(ctx context.Context) error {
	b.zooDir = filepath.Join(b.workDir, "zoo")
	z := b.suite.Zoo
	probe := startProbe()
	defer probe.kill()
	start := time.Now()
	cmd := exec.CommandContext(ctx, filepath.Join(b.binDir, "itask-train"), "-out", b.zooDir,
		"-samples", fmt.Sprint(z.Samples), "-epochs", fmt.Sprint(z.Epochs), "-seed", fmt.Sprint(z.Seed))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("itask-train: %w\n%s", err, out)
	}
	end := time.Now()
	host := probe.stop()
	b.trainS, b.trainQuietS = end.Sub(start).Seconds(), host.quiet(start.UnixNano(), end.UnixNano())
	for _, name := range z.Drop {
		if err := os.RemoveAll(filepath.Join(b.zooDir, name)); err != nil {
			return err
		}
	}
	var err error
	b.oracle, err = newOracle(b.zooDir)
	return err
}

// result is one workload run.
type result struct {
	Workload   string
	Seed       uint64
	TimedS     float64
	Env        envInfo
	EndToEnd   map[string]float64
	PerLayer   map[string]float64
	Outcomes   map[string]int
	Attempted  int
	Failed     int
	Mismatches int
	Samples    int
	Slices     int
	Checked    int
	// CheckedExact is how many of those were held to the last digit; the
	// rest (the int8 generalist out of a batch or a cache) to a tolerance.
	CheckedExact int
	Reloads      int
	Correct      bool
	FirstError   string
	Models       map[string]int
	Shards       map[string]int
	Traced       bool
	selfRows     []selfRow
	replayed     int
	replayUS     float64
	tracePath    string
	tracedRPS    float64
}

// sliceLen is the unit the timed segment is measured in. rps, p95 and CPU
// per request are taken per slice and reported as the median over slices,
// so a hiccup costs one slice, not the run.
// A traced run traces every other slice: zipf workloads speed up as caches
// fill, so a traced half after an untraced half would measure the drift,
// not the tracing; alternating gives both sides the same mix.
const sliceLen = time.Second

// timedSlice is one untraced slice as it was taken: which of the phase's
// samples and ops are its own, the servers' CPU seconds over it, and when.
type timedSlice struct {
	samples, ops [2]int // half-open index ranges into the phase
	cpuS         float64
	fromNS, toNS int64
}

// sliceFigures is one slice's own figures, as measured (host == nil) or as
// they would read on a quiet host.
type sliceFigures struct {
	rps, p95MS, cpuUSPerReq float64
}

func (sl timedSlice) figures(ph *phase, clients int, host *hostSeries) sliceFigures {
	samples, ops := ph.samples[sl.samples[0]:sl.samples[1]], ph.ops[sl.ops[0]:sl.ops[1]]
	var f sliceFigures
	if host == nil {
		f.rps = float64(len(samples)) / (float64(sl.toNS-sl.fromNS) / 1e9)
		f.cpuUSPerReq = sl.cpuS * 1e6 / float64(len(samples))
	} else {
		// Each client's answers over the time its turns of the loop would
		// have taken; the clients' rates add up.
		answers, busyUS := make([]float64, clients), make([]float64, clients)
		for _, o := range ops {
			busyUS[o.client] += adjust(o.cycleUS, o.queuedUS, host.at(o.endNS))
			if o.ok {
				answers[o.client]++
			}
		}
		for c := range answers {
			if busyUS[c] > 0 {
				f.rps += answers[c] / (busyUS[c] / 1e6)
			}
		}
		f.cpuUSPerReq = sl.cpuS / host.over(sl.fromNS, sl.toNS) * 1e6 / float64(len(samples))
	}
	f.p95MS = percentile(latenciesMS(samples, host), 0.95)
	return f
}

// latenciesMS is the client-observed latency of every sample, ascending:
// as measured, or with a host series as a quiet host would have shown it.
func latenciesMS(samples []sample, host *hostSeries) []float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.latencyUS / 1e3
		if host != nil {
			lat[i] = adjust(s.latencyUS, s.queuedUS, host.at(s.endNS)) / 1e3
		}
	}
	sort.Float64s(lat)
	return lat
}

// runWorkload boots fresh processes, warms them and times a segment, slice
// by slice. End-to-end figures come from untraced slices alone; counter
// deltas cover the whole segment. A traced run then does the in-process
// replay and the call timings.
func (b *bench) runWorkload(ctx context.Context, w Workload, seed uint64, segment time.Duration, trace bool) (*result, error) {
	fmt.Fprintf(os.Stderr, "itask-load: %s seed=%d: booting\n", w.Name, seed)
	u := newUniverse(w, seed, b.env.Clients)

	probe := startProbe()
	defer probe.kill()
	bootStart := time.Now()
	rig, err := bootRig(ctx, b.binDir, b.workDir, b.zooDir, w)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	bootEnd := time.Now()

	gen := newLoadgen(rig.target, u, b.oracle.family)
	defer gen.close()
	warm := min(max(segment/6, time.Second), 5*time.Second)
	warmed := gen.run(ctx, warm, nil)
	warmS := time.Since(bootEnd).Seconds()
	if n := warmed.failed(); n > 0 {
		fmt.Printf("  warning: %d of %d warm-up ops failed (%s)\n", n, warmed.attempted(), warmed.firstErr)
	}

	before, err := rig.scrape()
	if err != nil {
		return nil, err
	}
	self0, err := pidCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	ph, tracedPh := newPhase(), newPhase()
	var slices []timedSlice
	var tracedRPS []float64
	var untracedS, tracedS float64
	tr := newTracer()
	segStart := time.Now()
	for i := 0; untracedS+tracedS < segment.Seconds() && ctx.Err() == nil; i++ {
		cpu0, err := rig.cpuSeconds()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if trace && i%2 == 1 {
			part := gen.run(ctx, sliceLen, tr)
			elapsed := time.Since(start).Seconds()
			tracedS += elapsed
			tracedRPS = append(tracedRPS, float64(len(part.samples))/elapsed)
			tracedPh.merge(part)
			continue
		}
		part := gen.run(ctx, sliceLen, nil)
		end := time.Now()
		cpu1, err := rig.cpuSeconds()
		if err != nil {
			return nil, err
		}
		untracedS += end.Sub(start).Seconds()
		if len(part.samples) > 0 {
			slices = append(slices, timedSlice{
				samples: [2]int{len(ph.samples), len(ph.samples) + len(part.samples)},
				ops:     [2]int{len(ph.ops), len(ph.ops) + len(part.ops)},
				cpuS:    cpu1 - cpu0, fromNS: start.UnixNano(), toNS: end.UnixNano(),
			})
		}
		ph.merge(part)
	}
	segEnd := time.Now()
	host := probe.stop()
	self1, err := pidCPUSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	after, err := rig.scrape()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The slices' figures are taken before the oracle runs: an answer it
	// rejects leaves the pooled latency sample below, and is one in
	// thousands of a slice's.
	quiet, raw := make([]sliceFigures, len(slices)), make([]sliceFigures, len(slices))
	for i, sl := range slices {
		quiet[i], raw[i] = sl.figures(ph, b.env.Clients, host), sl.figures(ph, b.env.Clients, nil)
	}

	res := &result{
		Workload: w.Name, Seed: seed, TimedS: untracedS, Env: b.env, Traced: trace,
		EndToEnd: map[string]float64{}, Outcomes: map[string]int{},
	}
	res.tracedRPS = median(tracedRPS) // over traced slices, as rps is over untraced ones

	// Oracle: every oracleEvery-th answer of the timed segments is recomputed
	// in process. A wrong one becomes a failed op and leaves the latency sample.
	for _, p := range []*phase{ph, tracedPh} {
		bad := map[int]bool{}
		for _, a := range p.sampled {
			res.Checked++
			exactly, err := b.oracle.check(u, a)
			if exactly {
				res.CheckedExact++
			}
			if err != nil {
				p.outcomes[outOK]--
				p.fail(outMismatch, err.Error())
				bad[a.sample] = true
			}
		}
		if len(bad) > 0 {
			kept := p.samples[:0]
			for i, s := range p.samples {
				if !bad[i] {
					kept = append(kept, s)
				}
			}
			p.samples = kept
		}
	}
	// Routing stability: one frame keeps one shard unless the gateway said
	// hot, spilled it past a loaded owner, or failed over.
	if rig.gateway != nil {
		final, err := rig.scrape()
		if err != nil {
			return nil, err
		}
		allowed := int(final.gateway.Spills + final.gateway.Retries)
		if off := gen.cons.offHome(); off > allowed {
			for i := 0; i < off-allowed && ph.outcomes[outOK] > 0; i++ {
				ph.outcomes[outOK]--
				ph.fail(outMismatch, fmt.Sprintf("%d answers came from another shard than their frame's usual one, with only %d spills+retries", off, allowed))
			}
		}
	}

	total := newPhase()
	total.merge(ph)
	total.merge(tracedPh)
	for i, n := range total.outcomes {
		res.Outcomes[outcomeNames[i]] = n
	}
	res.Attempted, res.Failed = total.attempted(), total.failed()
	res.Mismatches = total.outcomes[outMismatch]
	res.Samples, res.Reloads = len(ph.samples), len(total.reloadsMS)
	res.FirstError = total.firstErr
	res.Models, res.Shards = total.models, total.shards
	res.Correct = verdict(res.Attempted, res.Failed, res.Mismatches, w.FailedShareBound)
	if len(slices) == 0 {
		return res, fmt.Errorf("%s: no correct answer in the timed segment (%s); %s log tail:\n%s",
			w.Name, total.firstErr, rig.procs()[0].name, rig.procs()[0].logTail())
	}

	overSlices := func(figs []sliceFigures, f func(sliceFigures) float64) float64 {
		v := make([]float64, len(figs))
		for i, sl := range figs {
			v[i] = f(sl)
		}
		return median(v)
	}
	res.Slices = len(slices)
	rawFigures := map[string]float64{}
	for _, set := range []struct {
		into   map[string]float64
		prefix string
		figs   []sliceFigures
		host   *hostSeries
		setup  float64
	}{
		{res.EndToEnd, "", quiet, host, b.trainQuietS + host.quiet(bootStart.UnixNano(), bootEnd.UnixNano()) + warmS},
		{rawFigures, "raw.", raw, nil, b.trainS + bootEnd.Sub(bootStart).Seconds() + warmS},
	} {
		set.into[set.prefix+"setup_s"] = set.setup
		set.into[set.prefix+"rps"] = overSlices(set.figs, func(sl sliceFigures) float64 { return sl.rps })
		set.into[set.prefix+"p50_ms"] = percentile(latenciesMS(ph.samples, set.host), 0.50)
		set.into[set.prefix+"p95_ms"] = overSlices(set.figs, func(sl sliceFigures) float64 { return sl.p95MS })
		set.into[set.prefix+"cpu_us_per_req"] = overSlices(set.figs, func(sl sliceFigures) float64 { return sl.cpuUSPerReq })
	}

	res.PerLayer = liveMetrics(total, before, after)
	for k, v := range rawFigures {
		res.PerLayer[k] = v
	}
	res.PerLayer["host.factor"] = host.over(segStart.UnixNano(), segEnd.UnixNano())
	res.PerLayer["host.probe_samples"] = float64(host.samples)
	res.PerLayer["client.p99_ms"] = percentile(latenciesMS(ph.samples, nil), 0.99)
	res.PerLayer["proc.rss_peak_mb"] = rig.rssPeakMB()
	res.PerLayer["loadgen.cpu_share"] = (self1 - self0) / ((untracedS + tracedS) * float64(b.env.NProc))
	res.PerLayer["distill.train_zoo_s"] = b.trainS
	if trace {
		if err := b.traceExtras(res, u, tracedPh, segment.Seconds()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceExtras is the part of a traced run that happens after the live
// segments: the in-process replay, the call timings, the trace file.
func (b *bench) traceExtras(res *result, u *universe, tracedPh *phase, segmentS float64) error {
	// Both sides as measured: the traced slices carry no host adjustment.
	res.PerLayer["trace.rps_ratio"] = res.tracedRPS / res.PerLayer["raw.rps"]
	n := min(2000, int(100*segmentS))
	tr, err := replay(b.oracle.pipe, u, n)
	if err != nil {
		return err
	}
	res.selfRows, res.replayed, res.replayUS = selfTimes(tr.spans)
	res.PerLayer["serve.self_us"] = serveSelfUS(tr.spans)
	calls, err := callMetrics(b.oracle, u)
	if err != nil {
		return err
	}
	for k, v := range calls {
		res.PerLayer[k] = v
	}
	res.tracePath, err = writeTrace(b.outDir, traceFile{
		Workload: res.Workload, Seed: res.Seed, Env: b.env,
		LiveSpans: tracedPh.spans, Replay: tr.spans, SelfTimes: res.selfRows,
		TracedRPS: res.tracedRPS, BaseRPS: res.PerLayer["raw.rps"], RPSRatio: res.PerLayer["trace.rps_ratio"],
		ReplayedUS: res.replayUS,
	})
	return err
}

// liveMetrics derives the per-layer metrics that come from the timed run
// itself: response fields and /metricsz deltas.
func liveMetrics(ph *phase, before, after scrape) map[string]float64 {
	m := map[string]float64{}
	var overhead, queued, exec, attempts []float64
	for _, s := range ph.samples {
		overhead = append(overhead, s.latencyUS-s.totalUS)
		if !s.cached && !s.coalesced {
			queued = append(queued, s.queuedUS)
			exec = append(exec, s.totalUS-s.queuedUS)
		}
		if s.attempts > 0 {
			attempts = append(attempts, float64(s.attempts))
		}
	}
	// Outside a shard's own admission-to-completion time there is its door
	// (body read, decode, encode, HTTP) and, behind a gateway, the hop.
	door := percentile(sortedCopy(overhead), 0.5)
	if after.gateway == nil {
		m["door.overhead_us"] = door
	} else {
		m["gateway.overhead_us"] = door
	}
	m["serve.queue_wait_us"] = percentile(sortedCopy(queued), 0.5)
	m["serve.exec_us"] = percentile(sortedCopy(exec), 0.5)
	m["registry.reload_ms"] = percentile(sortedCopy(ph.reloadsMS), 0.5)

	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	var hits, misses, hotHits, batches, batched, accepted, coalesced, cacheHits, cacheMisses float64
	for i := range after.shards {
		a, b := after.shards[i], before.shards[i]
		hits += float64(a.ResultCacheHits - b.ResultCacheHits)
		misses += float64(a.ResultCacheMisses - b.ResultCacheMisses)
		accepted += float64(a.Accepted - b.Accepted)
		coalesced += float64(a.Coalesced - b.Coalesced)
		m["serve.shed"] += float64(a.RejectedFull - b.RejectedFull + a.RejectedClosed - b.RejectedClosed +
			a.RejectedRoute - b.RejectedRoute + a.RejectedShape - b.RejectedShape + a.RejectedBreaker - b.RejectedBreaker +
			a.ShedExpired - b.ShedExpired + a.ShedCancelled - b.ShedCancelled)
		m["fair.rejected_budget"] += float64(a.RejectedBudget - b.RejectedBudget)
		if a.ResultCache != nil && b.ResultCache != nil {
			hotHits += float64(a.ResultCache.HotHits - b.ResultCache.HotHits)
			m["rcache.evictions"] += float64(a.ResultCache.Evictions - b.ResultCache.Evictions)
			m["rcache.hot_promotions"] += float64(a.ResultCache.HotPromotions - b.ResultCache.HotPromotions)
		}
		for size := range a.BatchHist {
			n := float64(a.BatchHist[size] - b.BatchHist[size])
			batches += n
			batched += n * float64(size+1)
		}
		if a.Cache != nil && b.Cache != nil {
			cacheHits += float64(a.Cache.Hits - b.Cache.Hits)
			cacheMisses += float64(a.Cache.Misses - b.Cache.Misses)
		}
		if a.Registry != nil && b.Registry != nil {
			m["registry.publishes"] += float64(a.Registry.Publishes - b.Registry.Publishes)
		}
	}
	m["rcache.hit_share"] = share(hits, hits+misses)
	m["rcache.hot_hit_share"] = share(hotHits, hits)
	m["serve.mean_batch"] = share(batched, batches)
	m["serve.coalesced_share"] = share(coalesced, accepted)
	m["sched.model_cache_hit_share"] = share(cacheHits, cacheHits+cacheMisses)

	if g, g0 := after.gateway, before.gateway; g != nil {
		routed := float64(g.Routed - g0.Routed)
		m["gateway.attempts_mean"] = share(sum(attempts), float64(len(attempts)))
		m["gateway.spill_share"] = share(float64(g.Spills-g0.Spills), routed)
		m["gateway.hot_routed_share"] = share(float64(g.HotRouted-g0.HotRouted), routed)
		m["gateway.ejections"] = float64(g.Ejections - g0.Ejections)
		m["member.expirations"] = float64(g.LeaseExpirations - g0.LeaseExpirations)
		served0 := map[string]uint64{}
		for _, n := range g0.Nodes {
			served0[n.ID] = n.Served
		}
		var most, all float64
		for _, n := range g.Nodes {
			d := float64(n.Served - served0[n.ID])
			most = max(most, d)
			all += d
		}
		m["gateway.shard_imbalance"] = share(most, all/float64(max(len(g.Nodes), 1)))
	}
	return m
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// printContract writes the one JSON line BENCHMARK.json's contract asks
// for: the end-to-end metrics of an untraced run, or the per-layer metrics
// of a traced one.
func printContract(w io.Writer, man *manifest, res *result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names, src := endToEndNames, res.EndToEnd
	if traced {
		names, src = perLayerNames, res.PerLayer
	}
	metrics := map[string]value{}
	for _, name := range names {
		metrics[name] = value{Value: src[name], Unit: man.decl(name).Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (b *bench) printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed=%d  timed=%.1fs  C=%d  nproc=%d  GOMAXPROCS=%d\n", r.Workload, r.Seed, r.TimedS, r.Env.Clients, r.Env.NProc, r.Env.GOMAXPROCS)
	fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d mismatches=%d oracle_checked=%d (%d exactly) reloads=%d correct=%v\n",
		r.Attempted, r.Failed, r.Mismatches, r.Checked, r.CheckedExact, r.Reloads, r.Correct)
	fmt.Fprint(w, "  outcomes:")
	for _, name := range outcomeNames {
		fmt.Fprintf(w, " %s=%d", name, r.Outcomes[name])
	}
	fmt.Fprintln(w)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", strings.TrimSpace(r.FirstError))
	}
	fmt.Fprintf(w, "  answers by model: %v\n", r.Models)
	if len(r.Shards) > 0 {
		fmt.Fprintf(w, "  answers by shard: %v\n", r.Shards)
	}
	fmt.Fprintf(w, "  end to end, as a quiet host would show it (host factor %.3f from %.0f probe samples; %d latency samples; rps, p95 and cpu are medians over %d one-second slices):\n",
		r.PerLayer["host.factor"], r.PerLayer["host.probe_samples"], r.Samples, r.Slices)
	for _, name := range endToEndNames {
		fmt.Fprintf(w, "    %-28s %14.4f %-6s as measured %14.4f\n", name, r.EndToEnd[name], b.manifest.decl(name).Unit, r.PerLayer["raw."+name])
	}
	fmt.Fprintln(w, "  per layer (n/a: not on this workload's path, or a call/replay metric of an untraced run):")
	for _, name := range perLayerNames {
		if v, ok := r.PerLayer[name]; ok {
			fmt.Fprintf(w, "    %-28s %14.4f %s\n", name, v, b.manifest.decl(name).Unit)
		} else {
			fmt.Fprintf(w, "    %-28s %14s\n", name, "n/a")
		}
	}
	if r.Traced {
		fmt.Fprintf(w, "  tracing overhead: traced/untraced rps = %.4f (base %.1f req/s untraced, %.1f traced)\n",
			r.PerLayer["trace.rps_ratio"], r.PerLayer["raw.rps"], r.tracedRPS)
		printSelfTable(w, r.selfRows, r.replayed, r.replayUS)
		fmt.Fprintf(w, "  trace written to %s\n", r.tracePath)
	}
}

// printRepeat summarises N runs of the whole set: median, quartiles and
// interquartile spread per (end-to-end metric, workload), next to the
// checked-in bound and the bound the spread would suggest.
func (b *bench) printRepeat(w io.Writer, runs [][]*result) {
	fmt.Fprintf(w, "\n== repeatability over %d runs (seeds differ)\n", len(runs))
	fmt.Fprintf(w, "  %-16s %-16s %12s %12s %12s %8s %7s %9s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "suggested")
	for wi, first := range runs[0] {
		for _, name := range endToEndNames {
			var vals []float64
			for _, set := range runs {
				vals = append(vals, set[wi].EndToEnd[name])
			}
			q1, _, q3 := quartiles(vals)
			sp, bound := spread(vals), b.manifest.decl(name).Bound
			note := ""
			if name != "setup_s" && sp > bound/3 {
				note = "  spread above a third of the bound"
			}
			fmt.Fprintf(w, "  %-16s %-16s %12.4f %12.4f %12.4f %7.2f%% %6.1f%% %8.1f%%%s\n",
				first.Workload, name, median(vals), q1, q3, 100*sp, 100*bound, 100*suggestBound(bound, sp), note)
		}
		var attempted, failedOps int
		for _, set := range runs {
			attempted += set[wi].Attempted
			failedOps += set[wi].Failed
		}
		fmt.Fprintf(w, "  %-16s %-16s %d of %d\n", first.Workload, "ops_failed", failedOps, attempted)
	}
}
