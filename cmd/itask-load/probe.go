package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host probe. A benchmark box is a couple of virtual CPUs on a shared
// host, and what the same instructions cost on them moves by a factor of up
// to 1.8 from one second to the next as the neighbours come and go (a
// hardware thread's sibling busy or not). Nothing inside a run averages
// that away, and between two sets of runs the host's mood changes too. So
// the benchmark measures it while it measures the servers: a child process
// of its own keeps one thread per CPU, pinned, in the SCHED_IDLE class so
// that it only ever runs in cycles nobody else wants, and each thread times
// one fixed unit of work in its own CPU time every probePeriod. The unit's
// cost over probeQuietNS is the host factor h(t): 1 on a quiet host. It is a
// process and not a goroutine because a starved SCHED_IDLE thread inside the
// load generator would hold up every stop-the-world of its collector.
//
// Every unit counts, also one the kernel took the CPU from part-way: coming
// back to caches the servers have used is dearer on a contended host too,
// and the servers pay that on every switch. (Units that ran in one piece
// read the same under every workload, but follow the servers' slow-down
// only half-way where four processes trade two CPUs; bench/README.md.)
//
// The end-to-end figures are then reported as they would read on a quiet
// host: CPU time and CPU-bound wall time are divided by h over the moments
// they were spent in; time the servers say a request waited on their batch
// timer is wall-clock time and is left alone. adjust() is the whole rule.
// The figures as measured are printed beside them and kept as raw.*.
const (
	// probeQuietNS is the unit's mean CPU time on the reference box (Intel
	// Xeon @ 2.10 GHz, go1.24) with idle neighbours while a workload runs.
	// Alone on the box the unit costs 205 µs; beside the servers its thread
	// keeps coming back to caches they have used, and it costs 1.08
	// (shard_cold) to 1.26 (fleet_zipf) times that. 235 µs sits in the
	// middle, so that on a quiet host a figure reads within a tenth of how
	// it was measured. On other hardware every adjusted figure scales by
	// one constant, which no comparison between two commits sees.
	probeQuietNS = 235e3
	probePeriod  = 16 * time.Millisecond
	// probeBucket is the resolution of h(t). Contention episodes last 0.2 s
	// to a few seconds.
	probeBucket = 250 * time.Millisecond
)

// probeWork is the unit's working set, 140 KB: it lives in the second-level
// cache like the servers' hot data, so a neighbour that takes the cache is
// felt, and so is coming back to a CPU the servers have just used.
type probeWork struct {
	f, g   [8192]float32
	a, b   [16384]int8
	src    [24576]byte
	dst    [24576]byte
	digits [8192]byte
	sink   uint64
}

func newProbeWork() *probeWork {
	w := &probeWork{}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range w.f {
		w.f[i], w.g[i] = float32(next()%1000)/1000, float32(next()%1000)/1000
	}
	for i := range w.a {
		w.a[i], w.b[i] = int8(next()), int8(next())
	}
	for i := range w.src {
		w.src[i] = byte(next())
	}
	for i := range w.digits {
		w.digits[i] = "0123456789,.-e"[next()%14]
	}
	return w
}

// unit is one fixed piece of work shaped like what the servers do per
// request: float and int8 multiply-accumulate (the forward passes), a
// dependent 64-bit multiply chain (digests), a block copy (bodies through
// the kernel and the pools) and a branchy byte scan (JSON numbers).
func (w *probeWork) unit() {
	for rep := 0; rep < 3; rep++ {
		w.mix()
	}
}

func (w *probeWork) mix() {
	var f0, f1, f2, f3 float32
	for r := 0; r < 3; r++ {
		for i := 0; i+4 <= len(w.f); i += 4 {
			f0 += w.f[i] * w.g[i]
			f1 += w.f[i+1] * w.g[i+1]
			f2 += w.f[i+2] * w.g[i+2]
			f3 += w.f[i+3] * w.g[i+3]
		}
	}
	var acc int32
	for r := 0; r < 2; r++ {
		for i := range w.a {
			acc += int32(w.a[i]) * int32(w.b[i])
		}
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(w.src); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(w.src[i:])) * 1099511628211
	}
	for r := 0; r < 8; r++ {
		copy(w.dst[:], w.src[:])
		w.src[r] = w.dst[len(w.dst)-1-r]
	}
	var num, nums uint64
	for _, c := range w.digits {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint64(c-'0')
		case c == ',':
			nums += num
			num = 0
		default:
			num ^= uint64(c)
		}
	}
	w.sink += uint64(f0+f1+f2+f3) + uint64(acc) + h + nums
}

// probeSample is one timed unit: when it ended, on which CPU, and the CPU
// time it took.
type probeSample struct {
	EndNS  int64 // Unix nanoseconds
	CPU    int32
	CostNS int32
}

// probeMain is the child: `itask-load -probe`. It samples until its standard
// input closes — which it also does when the parent dies — and then writes
// every sample to standard output.
func probeMain() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var mu sync.Mutex
	var all []probeSample
	var wg sync.WaitGroup
	for _, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The thread's class and affinity are its own; it is never
			// unlocked, so the runtime retires it with the goroutine.
			runtime.LockOSThread()
			if err := pinIdle(cpu); err != nil {
				fmt.Fprintln(os.Stderr, "itask-load probe: going on without:", err)
			}
			w := newProbeWork()
			var mine []probeSample
			tick := time.NewTicker(probePeriod)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					mu.Lock()
					all = append(all, mine...)
					mu.Unlock()
					return
				case <-tick.C:
				}
				c0 := threadCPUNanos()
				w.unit()
				cost := threadCPUNanos() - c0
				mine = append(mine, probeSample{EndNS: time.Now().UnixNano(), CPU: int32(cpu), CostNS: int32(cost)})
			}
		}()
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF: the parent is done, or gone
	close(stop)
	wg.Wait()
	out := bufio.NewWriter(os.Stdout)
	if err := binary.Write(out, binary.LittleEndian, all); err != nil {
		return err
	}
	return out.Flush()
}

// hostProbe is the parent's handle on a running probe child.
type hostProbe struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   io.ReadCloser
}

// hostProbeOn is the -hostprobe flag: off leaves every figure as measured.
var hostProbeOn = true

// startProbe launches this same binary as the probe child. A box that
// cannot run one (no Linux, a sandbox that forbids the scheduling calls)
// gets a warning and figures as measured, not a failed benchmark.
func startProbe() *hostProbe {
	p := &hostProbe{}
	if !hostProbeOn {
		return p
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "itask-load: no host probe:", err)
		return p
	}
	cmd := exec.Command(self, "-probe")
	cmd.Stderr = os.Stderr
	stdin, err1 := cmd.StdinPipe()
	out, err2 := cmd.StdoutPipe()
	if err := errors.Join(err1, err2, cmd.Start()); err != nil {
		fmt.Fprintln(os.Stderr, "itask-load: no host probe:", err)
		return p
	}
	p.cmd, p.stdin, p.out = cmd, stdin, out
	return p
}

// stop ends the child and returns h(t) over its lifetime. After stop or
// kill, both do nothing.
func (p *hostProbe) stop() *hostSeries {
	if p.cmd == nil {
		return &hostSeries{}
	}
	p.stdin.Close()
	raw, readErr := io.ReadAll(p.out)
	err := errors.Join(readErr, p.cmd.Wait())
	p.cmd = nil
	samples := make([]probeSample, len(raw)/binary.Size(probeSample{}))
	if err == nil {
		err = binary.Read(bytes.NewReader(raw), binary.LittleEndian, samples)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "itask-load: host probe lost, figures stay as measured:", err)
		return &hostSeries{}
	}
	return newHostSeries(samples)
}

// kill is stop for the paths that no longer want the samples.
func (p *hostProbe) kill() {
	if p.cmd == nil {
		return
	}
	p.stdin.Close()
	_ = p.cmd.Process.Kill() // fails only when the child is already gone
	_ = p.cmd.Wait()
	p.cmd = nil
}

// hostSeries is h(t) in probeBucket steps. A bucket's factor is the mean
// over CPUs of the mean unit cost each CPU's thread measured in it, over
// probeQuietNS; a bucket without samples takes its nearest neighbour's.
type hostSeries struct {
	startNS int64
	h       []float64
	samples int
	minNS   float64 // the cheapest unit seen: what probeQuietNS should be near
}

func newHostSeries(samples []probeSample) *hostSeries {
	s := &hostSeries{samples: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].EndNS < samples[j].EndNS })
	s.startNS = samples[0].EndNS
	s.minNS = float64(samples[0].CostNS)
	n := int((samples[len(samples)-1].EndNS-s.startNS)/int64(probeBucket)) + 1
	type cell struct{ sum, n float64 }
	perCPU := make([]map[int32]*cell, n)
	for _, p := range samples {
		b := int((p.EndNS - s.startNS) / int64(probeBucket))
		if perCPU[b] == nil {
			perCPU[b] = map[int32]*cell{}
		}
		c := perCPU[b][p.CPU]
		if c == nil {
			c = &cell{}
			perCPU[b][p.CPU] = c
		}
		c.sum += float64(p.CostNS)
		c.n++
		s.minNS = min(s.minNS, float64(p.CostNS))
	}
	s.h = make([]float64, n)
	for b, cpus := range perCPU {
		for _, c := range cpus {
			s.h[b] += c.sum / c.n / probeQuietNS / float64(len(cpus))
		}
	}
	// Fill gaps from the nearest bucket that has samples.
	last := -1
	for b := range s.h {
		if s.h[b] > 0 {
			for g := last + 1; g < b; g++ {
				if last < 0 || b-g <= g-last {
					s.h[g] = s.h[b]
				} else {
					s.h[g] = s.h[last]
				}
			}
			last = b
		}
	}
	return s
}

// at is the host factor at one moment; 1 when the probe saw nothing (no
// probe on this platform), which leaves every figure as measured.
func (s *hostSeries) at(unixNS int64) float64 {
	if len(s.h) == 0 {
		return 1
	}
	b := int((unixNS - s.startNS) / int64(probeBucket))
	return s.h[min(max(b, 0), len(s.h)-1)]
}

// over is the mean host factor of an interval.
func (s *hostSeries) over(fromNS, toNS int64) float64 {
	if len(s.h) == 0 || toNS <= fromNS {
		return s.at(fromNS)
	}
	var sum, n float64
	for t := fromNS; t < toNS; t += int64(probeBucket) / 2 {
		sum += s.at(t)
		n++
	}
	return sum / n
}

// quiet is how long a CPU-bound interval would have taken on a quiet host:
// the integral of dt/h(t).
func (s *hostSeries) quiet(fromNS, toNS int64) float64 {
	var sec float64
	step := int64(probeBucket) / 2
	for t := fromNS; t < toNS; t += step {
		dt := min(step, toNS-t)
		sec += float64(dt) / 1e9 / s.at(t+dt/2)
	}
	return sec
}

// adjust is the rule every host-adjusted time follows: of a measured time,
// the part spent waiting on a wall-clock timer stays, the rest — CPU-bound —
// is divided by the host factor of the moment.
func adjust(measured, timerWait, h float64) float64 {
	timerWait = min(max(timerWait, 0), measured)
	return timerWait + (measured-timerWait)/h
}
