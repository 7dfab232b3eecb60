package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/gateway"
	"itask/internal/testutil"
	"itask/internal/wire"
)

// relay_test.go: the shard relay's rules, one test each — a connection is
// reused while its answers end at their framing, a request is one write, a
// keep-alive the shard closed costs exactly one fresh dial, an answer off
// its framing or asking to close leaves the pool, a chunked answer arrives
// whole, the context ends an exchange mid-answer and mid-write, a line
// break in a header value never reaches the wire, no byte of a forwarded
// body is read after forwardDetect returns, a relayed detect's heap objects
// are pinned, at the relay and through the gateway's handler, and the
// answer read agrees with http.ReadResponse on any bytes.

// relayNode is an httpNode for the shard at base on a pool of its own.
func relayNode(t *testing.T, base string) *httpNode {
	t.Helper()
	n, err := (&app{pool: newConnPool()}).newNode(base)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// doorShard is a shard behind the door server itask-serve runs. Its
// listener counts the connections it accepts — every dial the relay makes —
// and keeps them, so a test can close them under the relay.
type doorShard struct {
	URL   string
	dials atomic.Int32

	mu    sync.Mutex
	conns []net.Conn
}

func countingShard(t *testing.T, h http.HandlerFunc) (*doorShard, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &doorShard{URL: "http://" + ln.Addr().String()}
	door := &wire.Server{Handler: h}
	go door.Serve(keepingListener{ln, s})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		door.Shutdown(ctx)
	})
	return s, &s.dials
}

// CloseClientConnections closes every connection the shard accepted.
func (s *doorShard) CloseClientConnections() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

type keepingListener struct {
	net.Listener
	s *doorShard
}

func (l keepingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.s.dials.Add(1)
		l.s.mu.Lock()
		l.s.conns = append(l.s.conns, c)
		l.s.mu.Unlock()
	}
	return c, err
}

// rawShard accepts TCP connections and hands each to serve; accepts counts
// them. The shard's HTTP is whatever serve writes.
func rawShard(t *testing.T, serve func(c net.Conn)) (base string, accepts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts = new(atomic.Int32)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer c.Close()
				serve(c)
			}()
		}
	}()
	return "http://" + ln.Addr().String(), accepts
}

func detectOK(t *testing.T, n *httpNode, body []byte) *backendResponse {
	t.Helper()
	br, err := n.forwardDetect(context.Background(), body, "application/json", false, "")
	if err != nil {
		t.Fatal(err)
	}
	if br.status != http.StatusOK {
		t.Fatalf("status %d: %s", br.status, br.body)
	}
	return br
}

// Sequential requests of every kind — detect, health read, reload —
// share one connection while each answer ends at its framing.
func TestRelayReusesOneConnection(t *testing.T) {
	srv, dials := countingShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"status":"ok","epoch":7}`)
	})
	n := relayNode(t, srv.URL)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		detectOK(t, n, []byte(sceneBody("patrol", i))).release()
		if ep, ok, down := n.Health(ctx); down != nil || !ok || ep != 7 {
			t.Fatalf("Health = %d, %v, %v", ep, ok, down)
		}
		if ep, err := n.Publish(ctx, []byte(`{}`)); err != nil || ep != 7 {
			t.Fatalf("Publish = %d, %v", ep, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("80 sequential requests dialed %d connections, want 1", got)
	}
}

// The shard sees the request line and headers the gateway has always sent:
// method, path, Host, Content-Type, Content-Length, X-Itask-Hot and
// X-Itask-Tenant, and nothing else.
func TestRelayRequestHead(t *testing.T) {
	type seen struct {
		method, path, host string
		length             int64
		header             http.Header
		body               []byte
	}
	got := make(chan seen, 1)
	srv, _ := countingShard(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got <- seen{r.Method, r.URL.Path, r.Host, r.ContentLength, r.Header.Clone(), b}
		fmt.Fprint(w, `{}`)
	})
	n := relayNode(t, srv.URL+"/")
	body := []byte(sceneBody("patrol", 1))
	br, err := n.forwardDetect(context.Background(), body, "", true, "acme")
	if err != nil {
		t.Fatal(err)
	}
	br.release()
	s := <-got
	want := http.Header{"Content-Length": {strconv.Itoa(len(body))}, "Content-Type": {"application/json"}, "X-Itask-Hot": {"1"}, "X-Itask-Tenant": {"acme"}}
	if s.method != http.MethodPost || s.path != "/v1/detect" || s.host != strings.TrimPrefix(srv.URL, "http://") ||
		s.length != int64(len(body)) || !bytes.Equal(s.body, body) || fmt.Sprint(s.header) != fmt.Sprint(want) {
		t.Fatalf("shard saw %+v", s)
	}
}

// A forwarded frame leaves in one write: over a unix SOCK_SEQPACKET
// connection every write is one message, so the shard counts the writes
// the relay made.
func TestRelayWritesEachRequestOnce(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("SOCK_SEQPACKET unix sockets are a Linux feature")
	}
	ln, err := net.Listen("unixpacket", "@itask-relay-"+strconv.Itoa(rand.Int()))
	if err != nil {
		t.Skip(err)
	}
	defer ln.Close()
	writes := make(chan int, 8)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		msg := make([]byte, 1<<20)
		for {
			var req []byte
			msgs := 0
			for {
				m, err := c.Read(msg)
				if err != nil {
					return
				}
				req = append(req, msg[:m]...)
				msgs++
				if r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(req))); err == nil {
					if b, err := io.ReadAll(r.Body); err == nil && int64(len(b)) == r.ContentLength {
						break
					}
				}
			}
			writes <- msgs
			c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"))
		}
	}()
	n := relayNode(t, "http://shard.invalid")
	n.pool.dial = func(ctx context.Context, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "unixpacket", ln.Addr().String())
	}
	jsonBody, binBody := twinBodies(t, "patrol", 1)
	for _, body := range [][]byte{jsonBody, binBody, jsonBody} {
		detectOK(t, n, body).release()
		if w := <-writes; w != 1 {
			t.Fatalf("a %d-byte frame went out in %d writes, want 1", len(body), w)
		}
	}
}

// A keep-alive the shard closed while it sat idle fails before its first
// answer byte; the request then succeeds on exactly one fresh dial.
func TestRelayRetriesAClosedKeepAliveOnce(t *testing.T) {
	srv, dials := countingShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{}`)
	})
	n := relayNode(t, srv.URL)
	body := []byte(sceneBody("patrol", 1))
	detectOK(t, n, body).release()
	srv.CloseClientConnections()
	detectOK(t, n, body).release()
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2: the first request's and one fresh one", got)
	}
	detectOK(t, n, body).release()
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d after a third request, want the fresh connection reused", got)
	}

	// A connection that was never reused gets no second chance: the shard
	// is down, not a stale keep-alive.
	base, accepts := rawShard(t, func(c net.Conn) {})
	n = relayNode(t, base)
	_, err := n.forwardDetect(context.Background(), body, "", false, "")
	if gateway.Classify(err) != gateway.ClassNodeDown || accepts.Load() != 1 {
		t.Fatalf("fresh connection closed unanswered: err %v (class %v), %d dials; want ClassNodeDown after 1", err, gateway.Classify(err), accepts.Load())
	}
}

// An answer that asks to close, whose bytes run past its framing, or that
// the relay stopped reading at maxProxyBytes, leaves its connection out of
// the pool: the next request dials.
func TestRelayDropsConnectionsOffTheirFraming(t *testing.T) {
	capped := strings.Repeat("a", maxProxyBytes)
	for _, tc := range []struct {
		name, answer, body string
	}{
		{"connection close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}", "{}"},
		{"bytes past the framing", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}xyz", "{}"},
		{"close-delimited", "HTTP/1.1 200 OK\r\n\r\n{}", "{}"},
		{"longer than maxProxyBytes", fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%sa", maxProxyBytes+1, capped), capped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, accepts := rawShard(t, func(c net.Conn) {
				br := bufio.NewReader(c)
				for {
					r, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, r.Body)
					if _, err := io.WriteString(c, tc.answer); err != nil {
						return
					}
					if !strings.Contains(tc.answer, "Content-Length") {
						return // the close delimits the body
					}
				}
			})
			n := relayNode(t, base)
			for i := 1; i <= 3; i++ {
				br := detectOK(t, n, []byte(sceneBody("patrol", i)))
				if string(br.body) != tc.body {
					t.Fatalf("%d-byte body, want the %d bytes %.8q…", len(br.body), len(tc.body), tc.body)
				}
				br.release()
				if got := accepts.Load(); got != int32(i) {
					t.Fatalf("after %d requests %d dials, want %d", i, got, i)
				}
			}
		})
	}
}

// A chunked answer is relayed byte for byte, and its connection, whose
// answer ended at the last chunk, carries the next request.
func TestRelayChunkedAnswer(t *testing.T) {
	want := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(want)
	sent := make(chan []byte, 3)
	base, dials := rawShard(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		for {
			r, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.Copy(io.Discard, r.Body)
			answer := []byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
			for p := want; len(p) > 0; p = p[min(len(p), 3001):] {
				chunk := p[:min(len(p), 3001)]
				answer = fmt.Appendf(answer, "%x\r\n%s\r\n", len(chunk), chunk)
			}
			answer = append(answer, "0\r\n\r\n"...)
			sent <- answer
			if _, err := c.Write(answer); err != nil {
				return
			}
		}
	})
	n := relayNode(t, base)
	for i := 0; i < 3; i++ {
		br := detectOK(t, n, []byte(sceneBody("patrol", 1)))
		if !bytes.Equal(br.body, want) {
			t.Fatalf("chunked answer relayed as %d bytes, want the %d sent", len(br.body), len(want))
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(<-sent)), nil)
		if err != nil || fmt.Sprint(resp.TransferEncoding) != "[chunked]" || resp.ContentLength != -1 {
			t.Fatalf("the shard's answer read as %v, %v; it was not chunked", resp, err)
		}
		br.release()
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
}

// A context that ends mid-answer — cancelled, or past its deadline — ends
// the exchange at once with the context's error, and the half-read
// connection is never reused.
func TestRelayContextEndsMidAnswer(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	partial := make(chan struct{}, 4)
	base, dials := rawShard(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		for {
			r, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			io.Copy(io.Discard, r.Body)
			if r.URL.Path == "/healthz" {
				io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 25\r\n\r\n{\"status\":\"ok\",\"epoch\":1}")
				continue
			}
			io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"part")
			partial <- struct{}{}
			<-release
			return
		}
	})
	n := relayNode(t, base)
	if _, _, down := n.Health(context.Background()); down != nil { // park one connection
		t.Fatal(down)
	}
	for i, end := range []struct {
		want error
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{context.Canceled, func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-partial; cancel() }()
			return ctx, cancel
		}},
		{context.DeadlineExceeded, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 100*time.Millisecond)
		}},
	} {
		ctx, cancel := end.ctx()
		start := time.Now()
		_, err := n.forwardDetect(ctx, []byte(sceneBody("patrol", i)), "", false, "")
		cancel()
		if !errors.Is(err, end.want) {
			t.Fatalf("err = %v, want %v", err, end.want)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("returned after %v: it waited for the shard", d)
		}
		if end.want == context.DeadlineExceeded {
			<-partial
		}
	}
	// Both half-read connections were closed, so the pool is empty: the
	// parked connection served the first request, each later one dialed.
	if _, _, down := n.Health(context.Background()); down != nil {
		t.Fatal(down)
	}
	if got := dials.Load(); got != 3 {
		t.Fatalf("dials = %d, want 3 (one parked, one after each abandoned answer)", got)
	}
}

// A CR or LF in any forwarded header value is refused as the request's
// fault before a byte reaches the shard.
func TestRelayRefusesLineBreaksInHeaders(t *testing.T) {
	srv, dials := countingShard(t, func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{}`) })
	n := relayNode(t, srv.URL)
	body := []byte(sceneBody("patrol", 1))
	for _, tc := range []struct{ contentType, tenant string }{
		{"application/json", "acme\r\nX-Itask-Hot: 1"},
		{"application/json", "acme\n"},
		{"application/json\rX: y", ""},
	} {
		_, err := n.forwardDetect(context.Background(), body, tc.contentType, false, tc.tenant)
		if gateway.Classify(err) != gateway.ClassRequest {
			t.Errorf("content type %q, tenant %q: err %v, want ClassRequest", tc.contentType, tc.tenant, err)
		}
	}
	if got := dials.Load(); got != 0 {
		t.Fatalf("refused requests dialed %d connections", got)
	}
}

// Once forwardDetect returns, no byte of the body is read again. The shard
// reads the head and the first 64 KiB of a body larger than any socket
// buffer, answers, and stalls; the context is cancelled. Whatever
// forwardDetect returned — this relay is still writing when the context
// ends, a client that reads while it writes has the answer — the caller
// then overwrites the body with a poison byte, and the shard, reading on to
// the end of the stream, must see none of it. This is the rule that lets
// the gateway recycle a request buffer on every path.
func TestRelayNeverReadsBodyAfterReturn(t *testing.T) {
	const size = 16 << 20
	answered, resume := make(chan struct{}), make(chan struct{})
	result := make(chan error, 1)
	base, _ := rawShard(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		if _, err := http.ReadRequest(br); err != nil {
			result <- err
			return
		}
		chunk := make([]byte, 64<<10)
		if _, err := io.ReadFull(br, chunk); err != nil {
			result <- err
			return
		}
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
		close(answered)
		<-resume
		n := len(chunk)
		for {
			m, err := br.Read(chunk)
			if i := bytes.IndexByte(chunk[:m], 'X'); i >= 0 {
				result <- fmt.Errorf("poison at body byte %d", n+i)
				return
			}
			n += m
			if err != nil {
				if n >= size {
					err = fmt.Errorf("the whole %d-byte body arrived; the write never stalled", n)
				} else {
					err = nil
				}
				result <- err
				return
			}
		}
	})
	body := bytes.Repeat([]byte{'a'}, size)
	n := relayNode(t, base)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-answered; cancel() }()
	br, err := n.forwardDetect(ctx, body, "application/json", false, "")
	if err == nil {
		br.release()
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want an answer or context.Canceled", err)
	}
	for i := range body {
		body[i] = 'X'
	}
	close(resume)
	if err := <-result; err != nil {
		t.Fatal(err)
	}
}

// A context that ends while the request's writev is blocked — the shard
// stopped reading a body larger than both sockets' buffers — ends the
// exchange soon after, with the context's error, past the first slice's
// end; the connection is never reused.
func TestRelayContextEndsMidWrite(t *testing.T) {
	const size = 16 << 20
	release := make(chan struct{})
	defer close(release)
	stalled := make(chan struct{}, 2)
	base, accepts := rawShard(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		for {
			r, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			if r.ContentLength == size {
				stalled <- struct{}{} // read the head, never the body
				<-release
				return
			}
			io.Copy(io.Discard, r.Body)
			io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
		}
	})
	n := relayNode(t, base)
	n.pool.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			err = c.(*net.TCPConn).SetWriteBuffer(4 << 10)
		}
		return c, err
	}
	body := bytes.Repeat([]byte{'a'}, size)
	for _, end := range []struct {
		want error
		// ctx returns the context and when it ends.
		ctx func() (context.Context, context.CancelFunc, <-chan time.Time)
	}{
		{context.Canceled, func() (context.Context, context.CancelFunc, <-chan time.Time) {
			ctx, cancel := context.WithCancel(context.Background())
			ended := make(chan time.Time, 1)
			go func() {
				<-stalled
				time.Sleep(4 * firstSlice) // the writev is blocked past its first slice
				ended <- time.Now()
				cancel()
			}()
			return ctx, cancel, ended
		}},
		{context.DeadlineExceeded, func() (context.Context, context.CancelFunc, <-chan time.Time) {
			go func() { <-stalled }()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			ended := make(chan time.Time, 1)
			d, _ := ctx.Deadline()
			ended <- d
			return ctx, cancel, ended
		}},
	} {
		ctx, cancel, ended := end.ctx()
		result := make(chan error, 1)
		go func() {
			_, err := n.forwardDetect(ctx, body, "application/json", false, "")
			result <- err
		}()
		var err error
		select {
		case err = <-result:
		case <-time.After(10 * time.Second):
			t.Fatalf("want %v: the exchange is still blocked in its write", end.want)
		}
		returned := time.Now()
		cancel()
		if !errors.Is(err, end.want) {
			t.Fatalf("err = %v, want %v", err, end.want)
		}
		if d := returned.Sub(<-ended); d > 2*time.Second {
			t.Fatalf("returned %v after its context ended", d)
		}
	}
	// Neither stalled connection went back to the pool: a small request
	// now dials a third one.
	detectOK(t, n, []byte(sceneBody("patrol", 1))).release()
	if got := accepts.Load(); got != 3 {
		t.Fatalf("dials = %d, want 3 (one per stalled write, one after)", got)
	}
}

// A relayed detect costs 7 heap objects once the pools are warm, the
// in-process door shard's included: the caller's WithTimeout (4), the
// backendResponse (1) and the two header values the shard's handler sets
// (2). The answer head, its values and the body cost none, and an exchange
// answered within its first slice hooks no context.AfterFunc (6 more, as
// every exchange did before the first slice). Before the relay read the
// common head itself it was 28.
func TestRelayExchangeAllocs(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	answer := []byte(`{"task":"patrol","detections":[]}`)
	srv, dials := countingShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Itask-Tenant", "acme")
		w.Write(answer)
	})
	n := relayNode(t, srv.URL)
	_, body := twinBodies(t, "patrol", 1)
	allocs := testutil.AllocsPerRunAt(2, 500, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		br, err := n.forwardDetect(ctx, body, wire.ContentType, false, "acme")
		cancel()
		if err != nil || !bytes.Equal(br.body, answer) || br.tenant != "acme" {
			t.Fatalf("answer %+v, %v", br, err)
		}
		br.release()
	})
	t.Logf("%v objects per relayed detect", allocs)
	if allocs > 7 {
		t.Fatalf("%v objects per relayed detect, want ≤ 7", allocs)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps the status
// and counts the body.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// One relayed detect through the gateway's handler — app.detect on a
// binary frame under DefaultConfig's attempt deadline, against the
// in-process door shard — costs 7 heap objects once the pools are warm:
// the attempt context (1), the body's MaxBytesReader (1), the
// backendResponse (1), the one array the values of the five headers the
// handler sets share — shard, attempts, hot (the repeated frame turns hot),
// content type and tenant — (1), the values of the two the shard's handler
// sets (2) and the route key's task string (1). Under the same harness a
// context.WithTimeout per attempt (4) and a context.AfterFunc per exchange
// (6) made it 22, Execute's preference, candidate and tried lists on the
// heap (3) 13, and a slice per header value (4 more) 10.
func TestGatewayDetectAllocs(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	answer := []byte(`{"task":"patrol","detections":[]}`)
	srv, dials := countingShard(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Itask-Tenant", "acme")
		w.Write(answer)
	})
	cfg := gateway.DefaultConfig()
	cfg.ProbeInterval, cfg.LeaseTTL = 0, 0 // nothing allocates beside the request
	a, err := newApp(cfg, []string{srv.URL}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.g.Close)

	_, body := twinBodies(t, "patrol", 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/detect", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Content-Type", wire.ContentType)
	r.Header.Set("X-Itask-Tenant", "acme")
	rd := bytes.NewReader(body)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
	w := &discardWriter{header: http.Header{}}
	allocs := testutil.AllocsPerRunAt(2, 500, func() {
		rd.Reset(body)
		clear(w.header)
		w.status, w.n = 0, 0
		a.detect(w, r)
		if w.status != http.StatusOK || w.n != len(answer) || w.header.Get("X-Itask-Attempts") != "1" {
			t.Fatalf("status %d, %d-byte body, header %v", w.status, w.n, w.header)
		}
	})
	t.Logf("%v objects per gateway detect", allocs)
	if allocs > 7 {
		t.Fatalf("%v objects per gateway detect, want ≤ 7", allocs)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
}

// netHTTPAnswer is how the relay read every answer before it read the
// common head itself: http.ReadResponse, the body up to maxProxyBytes, and
// keep when the body ended at its framing with nothing past it buffered
// and the answer did not ask to close.
func netHTTPAnswer(br *bufio.Reader) (resp *http.Response, body []byte, keep bool, err error) {
	resp, err = http.ReadResponse(br, nil)
	if err != nil {
		return nil, nil, false, err
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxProxyBytes))
	if err != nil {
		return nil, nil, false, err
	}
	var probe [1]byte
	m, perr := resp.Body.Read(probe[:])
	keep = m == 0 && errors.Is(perr, io.EOF) && !resp.Close && br.Buffered() == 0
	return resp, body, keep, nil
}

// FuzzRelayAnswer holds the relay's answer read to netHTTPAnswer: the same
// verdict, status, forwarded values (as http.Header.Get reads them), body
// and keep, for any bytes a shard may send. A head wire.ReadAnswerHead
// declines is left unread, its bytes as they arrived.
func FuzzRelayAnswer(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Itask-Tenant: acme\r\nDate: Mon, 19 Oct 2026 12:00:00 GMT\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 503 Service Unavailable\r\nretry-after: 2\r\nx-itask-degraded: student\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"part",
		"HTTP/1.1 200 OK\r\nContent-Le",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: foo close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}xyz",
		"HTTP/1.1 200 OK\r\n\r\n{}",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 0x2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nX-Itask-Tenant: acme\r\n  folded\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Type : text/plain\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Type:\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 204 No Content\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 2000 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1  200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200\nContent-Length: 2\n\n{}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, answer []byte) {
		resp, wantBody, wantKeep, wantErr := netHTTPAnswer(bufio.NewReader(bytes.NewReader(answer)))
		var h wire.AnswerHead
		for range 2 { // the second read reuses the first's strings
			br, keep, err := readAnswer(bufio.NewReader(bytes.NewReader(answer)), &h)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("err %v, net/http %v", err, wantErr)
			}
			if err != nil {
				return
			}
			got := [...]string{br.contentType, br.retryAfter, br.degraded, br.tenant}
			want := [...]string{resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), resp.Header.Get("X-Itask-Degraded"), resp.Header.Get("X-Itask-Tenant")}
			if br.status != resp.StatusCode || got != want || !bytes.Equal(br.body, wantBody) || keep != wantKeep {
				t.Fatalf("read %d %q, %d-byte body, keep %v; net/http %d %q, %d-byte body, keep %v",
					br.status, got, len(br.body), keep, resp.StatusCode, want, len(wantBody), wantKeep)
			}
			br.release()
		}

		r := bufio.NewReader(bytes.NewReader(answer))
		if !wire.ReadAnswerHead(r, &h) {
			if rest, _ := io.ReadAll(r); !bytes.Equal(rest, answer) {
				t.Fatalf("a declined head left %q unread, not the %q that arrived", rest, answer)
			}
		}
	})
}
