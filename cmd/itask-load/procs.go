package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"itask/internal/gateway"
	"itask/internal/serve"
)

// clockTicksPerSec is the unit of utime/stime in /proc/<pid>/stat. It is
// sysconf(_SC_CLK_TCK), which is 100 on every Linux port Go supports; there
// is no way to ask without cgo.
const clockTicksPerSec = 100

// proc is one server child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once the child has been reaped
}

// startProc launches bin with args, logging to <dir>/<name>.log.
func startProc(dir, name, bin, url string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: url, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a benchmark child says nothing: it is killed
		close(p.done)
	}()
	return p, nil
}

// stop kills the child and waits for it. A benchmark child holds nothing
// worth draining, and SIGKILL bounds the wait.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // fails only when the child is already gone
	<-p.done
	p.log.Close()
}

func (p *proc) logTail() string {
	raw, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(raw) > 2048 {
		raw = raw[len(raw)-2048:]
	}
	return string(raw)
}

// cpuSeconds is utime+stime of the child so far.
func (p *proc) cpuSeconds() (float64, error) { return pidCPUSeconds(p.cmd.Process.Pid) }

func pidCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are fixed after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return float64(utime+stime) / clockTicksPerSec, nil
}

// rssPeakMB is the child's high-water resident set (VmHWM).
func (p *proc) rssPeakMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on a benchmark box races
// for the port in between, and itask-gateway cannot report a ":0" bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// rig is the set of fresh server processes one workload runs against.
type rig struct {
	target  string  // base URL the load generator posts to
	gateway *proc   // nil for a single shard
	shards  []*proc // every itask-serve
}

func (r *rig) procs() []*proc {
	if r.gateway == nil {
		return r.shards
	}
	return append([]*proc{r.gateway}, r.shards...)
}

func (r *rig) stop() {
	for _, p := range r.shards {
		p.stop()
	}
	if r.gateway != nil {
		r.gateway.stop()
	}
}

func (r *rig) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range r.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

func (r *rig) rssPeakMB() float64 {
	var sum float64
	for _, p := range r.procs() {
		sum += p.rssPeakMB()
	}
	return sum
}

// bootRig starts the workload's processes with default flags (beyond the
// addresses, the model directory and the workload's declared settings) and
// returns once they are ready to serve at their steady routing state.
func bootRig(ctx context.Context, binDir, workDir, models string, w Workload) (*rig, error) {
	r := &rig{}
	ok := false
	defer func() {
		if !ok {
			r.stop()
		}
	}()
	nShards := 1
	var announce []string
	if w.Topology == "fleet" {
		nShards = 2
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		gw, err := startProc(workDir, "gateway", filepath.Join(binDir, "itask-gateway"), "http://"+addr, append([]string{"-addr", addr}, w.gatewayArgs()...)...)
		if err != nil {
			return nil, err
		}
		r.gateway, r.target = gw, gw.url
		announce = []string{"-announce", gw.url}
		if err := waitFor(ctx, gw, func() bool { return getOK(gw.url + "/metricsz") }); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nShards; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := append([]string{"-addr", addr, "-models", models}, announce...)
		sh, err := startProc(workDir, fmt.Sprintf("serve%d", i), filepath.Join(binDir, "itask-serve"), "http://"+addr, append(args, w.serveArgs()...)...)
		if err != nil {
			return nil, err
		}
		r.shards = append(r.shards, sh)
	}
	for _, sh := range r.shards {
		if err := waitFor(ctx, sh, func() bool { return getOK(sh.url + "/healthz") }); err != nil {
			return nil, err
		}
	}
	if r.gateway == nil {
		r.target = r.shards[0].url
	} else if err := waitFor(ctx, r.gateway, func() bool { return fleetSteady(r.gateway.url, nShards) }); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

// fleetSteady reports whether every announced shard has finished its
// slow-start ramp. Until then the ring's vnode shares still move, and the
// same frame may change shards between two requests.
func fleetSteady(gw string, want int) bool {
	var snap gateway.Snapshot
	if err := getJSON(gw+"/metricsz", &snap); err != nil || len(snap.Nodes) != want {
		return false
	}
	for _, n := range snap.Nodes {
		if n.Weight < 1 || n.Ejected || n.Lagging {
			return false
		}
	}
	return true
}

// waitFor polls ready every 20 ms until it holds, the child dies, or 60 s
// pass (a loaded box boots a shard in well under a second).
func waitFor(ctx context.Context, p *proc, ready func() bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for !ready() {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot; log tail:\n%s", p.name, p.logTail())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready; log tail:\n%s", p.name, p.logTail())
		}
	}
	return nil
}

// scrapeClient is separate from the load client so scrapes never share or
// evict the generator's keep-alive connections.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func getOK(url string) bool {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func getJSON(url string, v any) error {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is every server's /metricsz at one instant.
type scrape struct {
	shards  []serve.Snapshot
	gateway *gateway.Snapshot
}

func (r *rig) scrape() (scrape, error) {
	var s scrape
	for _, sh := range r.shards {
		var snap serve.Snapshot
		if err := getJSON(sh.url+"/metricsz", &snap); err != nil {
			return s, err
		}
		s.shards = append(s.shards, snap)
	}
	if r.gateway != nil {
		s.gateway = new(gateway.Snapshot)
		if err := getJSON(r.gateway.url+"/metricsz", s.gateway); err != nil {
			return s, err
		}
	}
	return s, nil
}
