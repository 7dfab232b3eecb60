package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

const testRules = `
# comment
[itask-serve]
first | runtime.mallocgc
forward | quant.(*Model).DetectBatch kernels.gemm*
kernel | syscall.* internal/poll.*
door | wire.(*conn).* wire.(*headParser).*
[itask-gateway]
client | main.(*httpNode).* main.(*relayConn).*
routing | gateway.*
kernel | syscall.* internal/poll.*
door | wire.(*conn).* wire.(*headParser).*
`

// traces is four samples of go tool pprof -traces text: an allocation
// under the forward (the first row wins though the later ones match too), a
// GEMM leaf under the forward, a stack no row matches, and the door server
// reading a request head (the kernel row wins over the door's).
const traces = `File: itask-serve.real
Type: cpu
Duration: 8s, Total samples = 65ms
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             itask/internal/quant.(*Model).DetectBatch
             itask/internal/wire.(*conn).serve
-----------+-------------------------------------------------------
      30ms   itask/internal/kernels.gemmI8VNNIAsm
             itask/internal/kernels.GemmI8
             itask/internal/quant.(*Model).DetectBatch
             itask/internal/wire.(*conn).serve
-----------+-------------------------------------------------------
      20ms   runtime.futex
             itask/internal/wire.ReadBody
-----------+-------------------------------------------------------
       5ms   syscall.Syscall
             internal/poll.(*FD).Read
             itask/internal/wire.(*conn).readHead
             itask/internal/wire.(*conn).serve
-----------+-------------------------------------------------------
`

// gatewayTraces is three samples of a gateway: a socket write inside the
// relay under the routing decision (the client row wins: it comes first),
// the ring lookup, and the door server parsing a request head.
const gatewayTraces = `File: itask-gateway
Type: cpu
-----------+-------------------------------------------------------
      12ms   internal/poll.(*FD).Writev
             main.(*relayConn).exchange
             main.(*httpNode).roundTrip
             main.(*httpNode).forwardDetect
             itask/internal/gateway.(*Gateway).Execute
             itask/internal/wire.(*conn).serve
-----------+-------------------------------------------------------
       3ms   itask/internal/gateway.(*ring).successors
             itask/internal/gateway.(*Gateway).Execute
             itask/internal/wire.(*conn).serve
-----------+-------------------------------------------------------
       4ms   itask/internal/wire.(*headParser).parseInPlace
             itask/internal/wire.(*headParser).parse
             itask/internal/wire.(*conn).serve
-----------+-------------------------------------------------------
`

// TestFirstMatchingRowTakesTheSample pins the semantics: rows are tried in
// file order, any frame of the stack may match, and the rest is "other".
func TestFirstMatchingRowTakesTheSample(t *testing.T) {
	secs, err := parseRules(strings.NewReader(testRules))
	if err != nil {
		t.Fatal(err)
	}
	file, samples, err := parseTraces(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	shard := sectionFor(secs, file)
	if shard == nil || shard.process != "itask-serve" {
		t.Fatalf("File: %q picked section %+v, want itask-serve", file, shard)
	}
	attribute(shard.rows, samples)
	want := map[string]time.Duration{"first": 10 * time.Millisecond, "forward": 30 * time.Millisecond, "kernel": 5 * time.Millisecond, "door": 0, "other": 20 * time.Millisecond}
	for _, r := range shard.rows {
		if r.total != want[r.name] {
			t.Errorf("row %q = %v, want %v", r.name, r.total, want[r.name])
		}
	}
	var b strings.Builder
	writeTable(&b, tableRows([]*section{shard}), 100, 0.5)
	for _, line := range []string{"| forward | 300.0 | 46.2 % |", "| **sum of rows** | **650.0** | |", "| run's `raw.cpu_us_per_req` | 0.5 (rows +129900 %) | |"} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("table lacks %q:\n%s", line, b.String())
		}
	}

	// A fleet: the gateway's samples by the gateway's rows, a second shard
	// profile added to the first's, each row named after its process.
	file, gwSamples, err := parseTraces(strings.NewReader(gatewayTraces))
	if err != nil {
		t.Fatal(err)
	}
	gw := sectionFor(secs, file)
	if gw == nil || gw.process != "itask-gateway" {
		t.Fatalf("File: %q picked section %+v, want itask-gateway", file, gw)
	}
	attribute(gw.rows, gwSamples)
	attribute(shard.rows, samples)
	b.Reset()
	writeTable(&b, tableRows([]*section{gw, shard}), 100, 0)
	for _, line := range []string{
		"| itask-gateway: client | 120.0 | 8.1 % |",
		"| itask-gateway: routing | 30.0 | 2.0 % |",
		"| itask-gateway: door | 40.0 | 2.7 % |",
		"| itask-gateway: other | 0.0 | 0.0 % |",
		"| itask-serve: forward | 600.0 | 40.3 % |",
		"| **sum of rows** | **1490.0** | |",
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("fleet table lacks %q:\n%s", line, b.String())
		}
	}
	if sectionFor(secs, "itask-load") != nil {
		t.Error("a profile of no listed process got a section")
	}
}

// TestPatternsMatchAfterASlash: a pattern matches the whole name or a
// suffix starting after a '/', never across one.
func TestPatternsMatchAfterASlash(t *testing.T) {
	for _, c := range []struct {
		p, frame string
		want     bool
	}{
		{"wire.DecodeDetect", "itask/internal/wire.DecodeDetect", true},
		{"net/http.*", "net/http.(*conn).serve", true},
		{"wire.(*conn).*", "itask/internal/wire.(*conn).serve", true},
		{"net/http.*", "vendor/golang.org/x/net/http/httpguts.ValidHeaderFieldName", false},
		{"net.*", "net/http.(*conn).serve", false},
		{"kernels.gemmI8*", "itask/internal/kernels.gemmI8VNNIAsm", true},
		{"rcache.*", "itask/internal/rcache.(*Cache).Get", true},
		{"serve.*", "itask/internal/serveish.X", false},
	} {
		if got := matchFrame(c.p, c.frame); got != c.want {
			t.Errorf("matchFrame(%q, %q) = %v", c.p, c.frame, got)
		}
	}
	if _, err := parseRules(strings.NewReader("[p]\nbad line without a bar")); err == nil {
		t.Error("a rule line without '|' parsed")
	}
	if _, err := parseRules(strings.NewReader("row | net.*")); err == nil {
		t.Error("a row before any [process] line parsed")
	}
}

// TestRulesFileOrder: the checked-in rules give a socket call under the door
// server to the kernel row and the door's own head parse to the door row,
// in both sections, a shard's probe and deferred decode to its parse row,
// its memo key to the digest row and its answer memo to the encode row, and
// no row names http.Transport, which no process runs.
func TestRulesFileOrder(t *testing.T) {
	f, err := os.Open("rules.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	secs, err := parseRules(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, process := range []string{"itask-serve", "itask-gateway"} {
		sec := sectionFor(secs, process)
		if sec == nil {
			t.Fatalf("no [%s] section", process)
		}
		type rowCase struct {
			frames []string
			row    string
		}
		cases := []rowCase{
			{[]string{"internal/poll.(*FD).Read", "itask/internal/wire.(*conn).readHead", "itask/internal/wire.(*conn).serve"}, "kernel and poller: socket reads, writes and wakes"},
			{[]string{"itask/internal/wire.(*headParser).parseInPlace", "itask/internal/wire.(*conn).serve"}, "door server: head, body, answer, ServeMux"},
		}
		if process == "itask-gateway" {
			// The answer-head reader is the relay's; the peer watch its
			// timer starts is the door's.
			cases = append(cases,
				rowCase{[]string{"itask/internal/wire.headLen", "itask/internal/wire.peekHead", "itask/internal/wire.ReadAnswerHead"}, "shard relay"},
				rowCase{[]string{"itask/internal/wire.nextField", "itask/internal/wire.ReadAnswerHead", "main.readAnswer"}, "shard relay"},
				rowCase{[]string{"itask/internal/wire.(*conn).watchPeer", "itask/internal/wire.(*conn).watchPeer-fm", "runtime.goexit"}, "door server: head, body, answer, ServeMux"},
				// The attempt context, made and ended around the relay, is
				// routing's; the relay's first slice, the deadline and hook
				// it sets once an exchange has waited, and an attempt child
				// made for that hook, are the relay's.
				rowCase{[]string{"itask/internal/gateway.newAttemptCtx", "itask/internal/gateway.(*Gateway).attempt", "itask/internal/gateway.(*Gateway).Execute", "main.(*app).detect"}, "routing: ring, health, hot keys, tenants"},
				rowCase{[]string{"context.(*cancelCtx).cancel", "itask/internal/gateway.(*attemptCtx).end", "itask/internal/gateway.(*Gateway).attempt", "itask/internal/gateway.(*Gateway).Execute"}, "routing: ring, health, hot keys, tenants"},
				rowCase{[]string{"internal/poll.(*FD).SetDeadline", "net.(*conn).SetDeadline", "main.(*relayConn).exchange", "main.(*httpNode).roundTrip"}, "shard relay"},
				rowCase{[]string{"context.AfterFunc", "main.(*relayConn).waitOn", "main.(*relayConn).Read", "bufio.(*Reader).Read"}, "shard relay"},
				rowCase{[]string{"context.WithDeadline", "itask/internal/gateway.(*attemptCtx).wait", "itask/internal/gateway.(*attemptCtx).AfterFunc", "context.AfterFunc", "main.(*relayConn).waitOn"}, "shard relay"},
			)
		}
		if process == "itask-serve" {
			// The probe and a decode serve asks for are the door's parse,
			// the memo's key is the digest's work, and the answer memo's
			// lookup and store are the encode's.
			cases = append(cases,
				rowCase{[]string{"itask/internal/wire.(*decoder).detect", "itask/internal/wire.ProbeDetect", "main.(*handler).parseCall", "main.(*handler).detect"}, "door: body read and parse"},
				rowCase{[]string{"itask/internal/wire.Float32s", "itask/internal/wire.(*DetectBody).LoadFrame", "main.(*detectCall).decode", "itask/internal/serve.(*Server).submitSlow", "itask/internal/serve.(*Server).Detect"}, "door: body read and parse"},
				rowCase{[]string{"itask/internal/kernels.hashBlocksAsm", "itask/internal/kernels.HashWordsLE", "main.memoKey", "main.(*handler).parseCall"}, "digest and result cache"},
				rowCase{[]string{"main.answerSlot", "main.(*answerMemo).get", "main.(*handler).detect"}, "JSON encode"},
				rowCase{[]string{"runtime.memmove", "main.(*answerMemo).put", "main.(*jsonAppender).detections", "main.(*handler).detect"}, "JSON encode"},
			)
		}
		for _, c := range cases {
			got := ""
			for _, r := range sec.rows {
				if r.matches(c.frames) {
					got = r.name
					break
				}
			}
			switch {
			case got == "":
				t.Errorf("[%s] %v reaches no row", process, c.frames[0])
			case got != c.row:
				t.Errorf("[%s] %v goes to %q, want %q", process, c.frames[0], got, c.row)
			}
		}
		for _, r := range sec.rows {
			for _, p := range r.patterns {
				if strings.Contains(p, "Transport") || strings.Contains(p, "persistConn") {
					t.Errorf("[%s] row %q names %s", process, r.name, p)
				}
			}
		}
	}
}
