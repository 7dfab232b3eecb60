package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/testutil"
)

// server_test.go: the door server's rules, one test each — a head reads as
// net/http.Server reads it, bodies (Content-Length, chunked, 100-continue,
// drained or not), keep-alive and pipelining, Content-Length answers, a
// caller that leaves, a peer watch only for a handler still waiting after
// watchDelay, panics, Shutdown, accept backoff, and the allocations of a
// keep-alive request.

// netHTTPHead is what net/http.Server makes of head: http.ReadRequest's
// request, or the status of its refusal — ReadRequest's own, or the
// server's checks after it (HTTP/1.x, a Host line on HTTP/1.1, a valid
// Host, token header names).
func netHTTPHead(head []byte) (*http.Request, int) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(head)))
	if err != nil {
		return nil, http.StatusBadRequest
	}
	if req.ProtoMajor != 1 {
		return nil, http.StatusHTTPVersionNotSupported
	}
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(head)))
	tp.ReadLine()
	mh, _ := tp.ReadMIMEHeader()
	hosts, haveHost := mh["Host"]
	if req.ProtoAtLeast(1, 1) && !haveHost && req.Method != http.MethodConnect {
		return nil, http.StatusBadRequest
	}
	if len(hosts) == 1 && !validHostRef(hosts[0]) {
		return nil, http.StatusBadRequest
	}
	for k := range req.Header {
		if k == "" || strings.IndexFunc(k, func(r rune) bool { return !strings.ContainsRune(tcharsRef, r) }) >= 0 {
			return nil, http.StatusBadRequest
		}
	}
	return req, 0
}

// tcharsRef is RFC 7230's tchar set spelled out, apart from head.go's table.
const tcharsRef = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// validHostRef is net/http's Host byte set spelled out.
func validHostRef(h string) bool {
	for _, r := range h {
		if !strings.ContainsRune("!$%&()*+,-.:;=[']_~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", r) {
			return false
		}
	}
	return true
}

// doorHead is what the door makes of head: the request and its framing,
// or the status of its refusal.
func doorHead(p *headParser, head []byte) (*http.Request, bool, int) {
	end := -1
	for i := 0; i+1 < len(head) && end < 0; i++ {
		switch {
		case i == 0 && (head[0] == '\n' || head[0] == '\r' && head[1] == '\n'):
			return nil, false, http.StatusBadRequest // a blank request line
		case head[i] == '\n' && head[i+1] == '\n':
			end = i + 2
		case head[i] == '\n' && i+2 < len(head) && head[i+1] == '\r' && head[i+2] == '\n':
			end = i + 3
		}
	}
	if end < 0 {
		return nil, false, -1 // no whole head: the door would wait for more
	}
	if end > headBufBytes {
		return nil, false, http.StatusRequestHeaderFieldsTooLarge
	}
	if err := p.parse(append([]byte(nil), head[:end]...)); err != nil {
		var he *headError
		errors.As(err, &he)
		return nil, false, he.code
	}
	return p.req, p.chunked, 0
}

// compareHead fails t when the door and net/http read head differently:
// a head net/http reads is read to the same fields, one it refuses is
// refused, and the one tightening is a head past the door's buffer (431).
// A head with no blank line is skipped: the door waits for the rest.
func compareHead(t *testing.T, p *headParser, head []byte) {
	t.Helper()
	got, chunked, code := doorHead(p, head)
	if code < 0 {
		return
	}
	want, wantCode := netHTTPHead(head)
	switch {
	case code == http.StatusRequestHeaderFieldsTooLarge:
		return
	case wantCode != 0 || code != 0:
		if (wantCode == 0) != (code == 0) {
			t.Fatalf("head %q: door status %d, net/http %d", head, code, wantCode)
		}
		return
	}
	type fields struct {
		Method, RequestURI, Proto string
		Major, Minor              int
		URL                       url.URL
		Header                    http.Header
		Host                      string
		Close, Chunked            bool
		ContentLength             int64
		TransferEncoding          []string
		Trailer                   http.Header
	}
	of := func(r *http.Request, chunked bool) fields {
		return fields{r.Method, r.RequestURI, r.Proto, r.ProtoMajor, r.ProtoMinor, *r.URL,
			r.Header, r.Host, r.Close, chunked, r.ContentLength, r.TransferEncoding, r.Trailer}
	}
	if g, w := of(got, chunked), of(want, len(want.TransferEncoding) > 0); !reflect.DeepEqual(g, w) {
		t.Fatalf("head %q:\ndoor     %+v\nnet/http %+v", head, g, w)
	}
}

// doorHeads are heads both readers see: the common shape each client here
// sends, and the odd ones that go to http.ReadRequest.
var doorHeads = []string{
	"POST /v1/detect HTTP/1.1\r\nHost: 127.0.0.1:8081\r\nContent-Type: application/x-itask-tensor\r\nContent-Length: 12345\r\nX-Itask-Tenant: acme\r\n\r\n",
	"GET /healthz HTTP/1.1\r\nHost: shard\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
	"DELETE /v1/announce?url=http://a:1 HTTP/1.1\r\nHost: gw\r\n\r\n",
	"GET /a?b? HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /a? HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET / HTTP/1.0\r\n\r\n",
	"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nConnection: keep-alive, CLOSE\r\n\r\n",
	"GET / HTTP/1.1\nhost: h\naccept: a\naccept: b\n\n",
	"GET / HTTP/1.1\r\nHost: h\r\nX-Long: a \r\n  continued\r\n\r\n",
	"GET / HTTP/1.1\r\n Host: h\r\n\r\n",
	"GET / HTTP/1.1\r\nHost : h\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nHost: i\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a b\r\n\r\n",
	"GET / HTTP/1.1\r\n\r\n",
	"GET http://other/x HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /%7Efoo/a%20b HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /caf\xc3\xa9 HTTP/1.1\r\nHost: h\r\n\r\n",
	"GET /!x HTTP/1.1\r\nHost: h\r\n\r\n",
	"OPTIONS * HTTP/1.1\r\nHost: h\r\n\r\n",
	"CONNECT example.com:443 HTTP/1.1\r\n\r\n",
	"PRI * HTTP/2.0\r\n\r\n",
	"GET / HTTP/1.2\r\nHost: h\r\n\r\n",
	"GET / http/1.1\r\nHost: h\r\n\r\n",
	"GET  / HTTP/1.1\r\nHost: h\r\n\r\n",
	"G@T / HTTP/1.1\r\nHost: h\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\nTrailer: X-T\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: gzip\r\n\r\n",
	"POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: +5\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 9223372036854775807\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nContent-Length:\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nPragma: no-cache\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nX: a\x01b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nX: a\rb\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nX:\tv\t\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\n: v\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: h\r\nnocolon\r\n\r\n",
	"GET / HTTP/1.1\r\r\nHost: h\r\n\r\n",
	"GET /\x7f HTTP/1.1\r\nHost: h\r\n\r\n",
}

// A head reads as net/http.Server reads it, on the door's own path and on
// http.ReadRequest's alike, with one parser reused across all of them as a
// connection reuses it.
func TestDoorReadsHeadsLikeNetHTTP(t *testing.T) {
	p := newHeadParser((&http.Request{}).WithContext(context.Background()))
	for _, h := range doorHeads {
		compareHead(t, p, []byte(h))
	}
	long := "GET / HTTP/1.1\r\nHost: h\r\nX: " + strings.Repeat("a", headBufBytes) + "\r\n\r\n"
	if _, _, code := doorHead(p, []byte(long)); code != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("a %d-byte head: status %d, want 431", len(long), code)
	}
}

func FuzzDoorRequestHead(f *testing.F) {
	for _, h := range doorHeads {
		f.Add([]byte(h))
	}
	p := newHeadParser((&http.Request{}).WithContext(context.Background()))
	f.Fuzz(func(t *testing.T, head []byte) {
		compareHead(t, p, head)
	})
}

// startDoor serves h on a loopback listener until the test ends.
func startDoor(t testing.TB, h http.Handler) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveDoor(t, ln, h), ln.Addr().String()
}

// serveDoor serves h on ln until the test ends.
func serveDoor(t testing.TB, ln net.Listener, h http.Handler) *Server {
	t.Helper()
	s := &Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})
	return s
}

// rawConn is a client connection that writes bytes and reads answers.
type rawConn struct {
	net.Conn
	br *bufio.Reader
}

func dialDoor(t testing.TB, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{Conn: c, br: bufio.NewReader(c)}
}

// answer reads one answer and its whole body.
func (c *rawConn) answer(t testing.TB, method string) (*http.Response, string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// closed reports whether the server closed the connection: the next read
// is EOF with nothing before it.
func (c *rawConn) closed(t testing.TB) bool {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := c.br.ReadByte()
	return err == io.EOF
}

// echo answers with the method, the path, the query's a, and the body.
var echo = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintf(w, "%s %s %s %s", r.Method, r.URL.Path, r.URL.Query().Get("a"), b)
})

// Bodies: a Content-Length body read straight from the connection, a
// chunked one with its trailer followed by a pipelined request, and
// Expect: 100-continue answered with a 100 before the body is sent.
func TestDoorBodies(t *testing.T) {
	_, addr := startDoor(t, echo)
	c := dialDoor(t, addr)
	big := strings.Repeat("x", 3*headBufBytes)
	fmt.Fprintf(c, "POST /p?a=1 HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s", len(big), big)
	if _, body := c.answer(t, "POST"); body != "POST /p 1 "+big {
		t.Fatalf("Content-Length body answered %.40q…", body)
	}

	io.WriteString(c, "POST /c HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n"+
		"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"+
		"GET /next?a=2 HTTP/1.1\r\nHost: h\r\n\r\n")
	if resp, body := c.answer(t, "POST"); body != "POST /c  hello world" || resp.TransferEncoding != nil {
		t.Fatalf("chunked body answered %q (transfer encoding %v)", body, resp.TransferEncoding)
	}
	if _, body := c.answer(t, "GET"); body != "GET /next 2 " {
		t.Fatalf("request after a chunked body answered %q", body)
	}

	io.WriteString(c, "POST /e HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n")
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.br.ReadString('\n')
	if err != nil || line != "HTTP/1.1 100 Continue\r\n" {
		t.Fatalf("before the body: %q, %v; want the interim 100", line, err)
	}
	c.br.ReadString('\n')
	io.WriteString(c, "body")
	if _, body := c.answer(t, "POST"); body != "POST /e  body" {
		t.Fatalf("100-continue body answered %q", body)
	}
}

// A body the handler left unread is drained when it is at most 256 KiB,
// and the connection carries the next request; past that the answer says
// Connection: close and the connection closes.
func TestDoorDrainsUnreadBody(t *testing.T) {
	_, addr := startDoor(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ignored")
	}))
	for _, tc := range []struct {
		size int
		keep bool
	}{{1000, true}, {maxDrainBytes, true}, {maxDrainBytes + 1, false}} {
		c := dialDoor(t, addr)
		go fmt.Fprintf(c, "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s", tc.size, strings.Repeat("b", tc.size))
		resp, _ := c.answer(t, "POST")
		if resp.Close == tc.keep {
			t.Fatalf("%d unread bytes: answer Close=%v, want %v", tc.size, resp.Close, !tc.keep)
		}
		if !tc.keep {
			if !c.closed(t) {
				t.Fatalf("%d unread bytes: connection left open", tc.size)
			}
			continue
		}
		io.WriteString(c, "GET / HTTP/1.1\r\nHost: h\r\n\r\n")
		if _, body := c.answer(t, "GET"); body != "ignored" {
			t.Fatalf("after %d drained bytes: %q", tc.size, body)
		}
	}
}

// HTTP/1.1 persists by default and pipelined requests are answered in
// order; Connection: close, and HTTP/1.0 without keep-alive, close after
// an answer that says so; HTTP/1.0 with keep-alive persists and says so.
func TestDoorKeepAlive(t *testing.T) {
	var accepts atomic.Int32
	s := &Server{Handler: echo}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(countListener{ln, &accepts})
	defer s.Shutdown(context.Background())
	addr := ln.Addr().String()

	c := dialDoor(t, addr)
	io.WriteString(c, "GET /1?a=x HTTP/1.1\r\nHost: h\r\n\r\nPOST /2 HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhiGET /3 HTTP/1.1\r\nHost: h\r\n\r\n")
	for _, want := range []string{"GET /1 x ", "POST /2  hi", "GET /3  "} {
		if resp, body := c.answer(t, "GET"); body != want || resp.Close {
			t.Fatalf("pipelined answer %q (close %v), want %q", body, resp.Close, want)
		}
	}
	if got := accepts.Load(); got != 1 {
		t.Fatalf("%d connections for three pipelined requests", got)
	}

	for _, tc := range []struct {
		req, connection string
		close           bool
	}{
		{"GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n", "close", true},
		{"GET / HTTP/1.0\r\n\r\n", "close", true},
		{"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", "keep-alive", false},
	} {
		c := dialDoor(t, addr)
		io.WriteString(c, tc.req)
		resp, _ := c.answer(t, "GET")
		// ReadResponse turns an answer's Connection: close into Close.
		if got := resp.Header.Get("Connection"); resp.Close != tc.close || !resp.Close && got != tc.connection {
			t.Errorf("%q: answer says Connection %q (close %v), want %q", tc.req, got, resp.Close, tc.connection)
		}
		if tc.close {
			if !c.closed(t) {
				t.Errorf("%q: connection left open", tc.req)
			}
			continue
		}
		io.WriteString(c, tc.req)
		if resp, _ := c.answer(t, "GET"); resp.StatusCode != http.StatusOK {
			t.Errorf("%q: the kept connection answered %d", tc.req, resp.StatusCode)
		}
	}
}

type countListener struct {
	net.Listener
	n *atomic.Int32
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// Every answer is framed by Content-Length, however large; a HEAD gets the
// headers only; the Date is one formatted instant; the head reaches the
// handler as net/http.Server hands it over.
func TestDoorAnswers(t *testing.T) {
	big := strings.Repeat("z", 200_000)
	_, addr := startDoor(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Host", r.Host)
		w.Header().Set("X-Split", "a\r\nb")
		io.WriteString(w, big)
	}))
	c := dialDoor(t, addr)
	for _, method := range []string{"GET", "HEAD", "GET"} {
		fmt.Fprintf(c, "%s / HTTP/1.1\r\nHost: door.example\r\n\r\n", method)
		resp, body := c.answer(t, method)
		if resp.TransferEncoding != nil || resp.Header.Get("Content-Length") != fmt.Sprint(len(big)) {
			t.Fatalf("%s framed by %v / Content-Length %q", method, resp.TransferEncoding, resp.Header.Get("Content-Length"))
		}
		if want := map[string]string{"GET": big, "HEAD": ""}[method]; body != want {
			t.Fatalf("%s body is %d bytes, want %d", method, len(body), len(want))
		}
		if d, err := http.ParseTime(resp.Header.Get("Date")); err != nil || time.Since(d) > time.Minute {
			t.Fatalf("Date %q: %v", resp.Header.Get("Date"), err)
		}
		if resp.Header.Get("X-Host") != "door.example" || resp.Header.Get("X-Split") != "a  b" {
			t.Fatalf("headers %v", resp.Header)
		}
	}
}

// A caller that closes its connection cancels r.Context(); a byte the peer
// watch read while the handler waited is the first byte of the next request.
func TestDoorCallerLeaves(t *testing.T) {
	waiting, release := make(chan struct{}, 2), make(chan struct{})
	cancelled := make(chan error, 1)
	srv, addr := startDoor(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		switch r.URL.Path {
		case "/wait":
			done := r.Context().Done()
			waiting <- struct{}{}
			select {
			case <-done:
				cancelled <- r.Context().Err()
			case <-release:
			}
		}
		io.WriteString(w, r.URL.Path)
	}))

	c := dialDoor(t, addr)
	io.WriteString(c, "GET /wait HTTP/1.1\r\nHost: h\r\n\r\n")
	<-waiting
	c.Close()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("context ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler's context outlived its caller")
	}

	c = dialDoor(t, addr)
	io.WriteString(c, "GET /wait HTTP/1.1\r\nHost: h\r\n\r\n")
	<-waiting
	io.WriteString(c, "GET /after HTTP/1.1\r\nHost: h\r\n\r\n")
	// The watch starts watchDelay after the wait began and takes the next
	// request's first byte; that byte must still begin the next request.
	waitFor(t, "the watch to take the next request's first byte", func() bool {
		return watchState(srv, func(c *conn) bool { return c.watch == watchRunning && c.watchGot })
	})
	close(release)
	for _, want := range []string{"/wait", "/after"} {
		if _, body := c.answer(t, "GET"); body != want {
			t.Fatalf("answer %q, want %q", body, want)
		}
	}
}

// The peer watch is deferred: a handler that waits on Done and returns at
// once starts none, and its keep-alive request allocates nothing, the
// connection's one timer reset rather than made; a handler still waiting
// watchDelay after it began sees its caller leave as context.Canceled.
func TestDoorWatchesOnlyAHandlerThatWaited(t *testing.T) {
	waiting := make(chan time.Time, 1)
	cancelled := make(chan error, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadlines := new(atomic.Int32)
	serveDoor(t, deadlineCounter{ln, deadlines}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		began := time.Now() // before Done arms the timer
		done := r.Context().Done()
		if r.URL.Path != "/wait" {
			return
		}
		waiting <- began
		<-done
		cancelled <- r.Context().Err()
	}))

	c := dialDoor(t, ln.Addr().String())
	req := []byte("GET /quick HTTP/1.1\r\nHost: h\r\n\r\n")
	answer := make([]byte, 4096)
	exchange := func() {
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Read(answer); err != nil || !bytes.HasPrefix(answer[:n], []byte("HTTP/1.1 200 OK\r\n")) {
			t.Fatalf("answer %q, %v", answer[:n], err)
		}
	}
	exchange()
	if !testutil.Race {
		if allocs := testutil.AllocsPerRunAt(2, 200, exchange); allocs != 0 {
			t.Errorf("%v objects per keep-alive request that waited on Done, want 0", allocs)
		}
	}
	time.Sleep(3 * watchDelay) // any watch would have started by now
	exchange()
	if n := deadlines.Load(); n != 0 {
		t.Fatalf("%d read deadlines set: a watch ran for a handler that returned at once", n)
	}

	io.WriteString(c, "GET /wait HTTP/1.1\r\nHost: h\r\n\r\n")
	began := <-waiting
	c.Close()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("context ended with %v", err)
		}
		if d := time.Since(began); d < watchDelay {
			t.Fatalf("context cancelled %v after the wait began, before the watch could start (%v)", d, watchDelay)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler's context outlived its caller")
	}
}

// deadlineCounter counts the read deadlines the server sets on its
// connections: stopping a running peer watch sets two.
type deadlineCounter struct {
	net.Listener
	n *atomic.Int32
}

func (l deadlineCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return deadlineConn{c, l.n}, nil
}

type deadlineConn struct {
	net.Conn
	n *atomic.Int32
}

func (c deadlineConn) SetReadDeadline(t time.Time) error {
	c.n.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// watchState reports whether the server's connections include one whose
// watch state satisfies ok.
func watchState(s *Server, ok func(c *conn) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.watchMu.Lock()
		got := ok(c)
		c.watchMu.Unlock()
		if got {
			return true
		}
	}
	return false
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A handler panic is logged as net/http logs it and closes its connection;
// http.ErrAbortHandler closes it without a line; the server serves on.
func TestDoorRecoversPanics(t *testing.T) {
	var logged syncBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(io.Discard)
	_, addr := startDoor(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/panic":
			panic("boom")
		case "/abort":
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok")
	}))
	for _, path := range []string{"/abort", "/panic"} {
		c := dialDoor(t, addr)
		fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: h\r\n\r\n", path)
		if !c.closed(t) {
			t.Fatalf("%s left its connection open", path)
		}
		if path == "/abort" && logged.String() != "" {
			t.Fatalf("ErrAbortHandler logged %q", logged.String())
		}
	}
	if s := logged.String(); !strings.Contains(s, "http: panic serving 127.0.0.1:") || !strings.Contains(s, "boom") || !strings.Contains(s, "goroutine ") {
		t.Fatalf("panic logged as %q", s)
	}
	c := dialDoor(t, addr)
	io.WriteString(c, "GET / HTTP/1.1\r\nHost: h\r\n\r\n")
	if _, body := c.answer(t, "GET"); body != "ok" {
		t.Fatalf("after the panics: %q", body)
	}
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// Shutdown closes the listener first, then the idle connections, answers
// the request already running with Connection: close, and waits for it;
// its context bounds the wait.
func TestDoorShutdown(t *testing.T) {
	running, release := make(chan struct{}), make(chan struct{})
	s := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(running)
			<-release
		}
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, r.URL.Path)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	addr := ln.Addr().String()

	idle := dialDoor(t, addr)
	io.WriteString(idle, "GET /idle HTTP/1.1\r\nHost: h\r\n\r\n")
	idle.answer(t, "GET")
	busy := dialDoor(t, addr)
	io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: h\r\n\r\n")
	<-running

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a request running: %v, want the context's deadline", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("a new connection was accepted after Shutdown began")
	}
	if !idle.closed(t) {
		t.Fatal("the idle connection was left open")
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	close(release)
	resp, body := busy.answer(t, "GET")
	if body != "/slow" || !resp.Close {
		t.Fatalf("the running request answered %q, close %v", body, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// Temporary accept errors back off 5, 10, 20 ms before the next accept.
func TestDoorAcceptBackoff(t *testing.T) {
	log.SetOutput(io.Discard)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 3}
	s := &Server{Handler: echo}
	go s.Serve(fl)
	defer s.Shutdown(context.Background())
	start := time.Now()
	c := dialDoor(t, ln.Addr().String())
	io.WriteString(c, "GET / HTTP/1.1\r\nHost: h\r\n\r\n")
	c.answer(t, "GET")
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Fatalf("answered after %v: three temporary errors must back off 5+10+20 ms", d)
	}
}

type flakyListener struct {
	net.Listener
	fails int
}

type tempErr struct{}

func (tempErr) Error() string   { return "temporary" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

// A keep-alive request to a handler that allocates nothing costs the door
// no object (net/http.Server: 19).
func TestDoorKeepAliveAllocs(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector allocates")
	}
	nop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	})
	req := []byte("POST /v1/detect HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n" + strings.Repeat("p", 64))
	for _, tc := range []struct {
		name string
		max  float64
		addr func() string
	}{
		{"door", 0, func() string { _, addr := startDoor(t, nop); return addr }},
		{"net/http", 1000, func() string { s := httptest.NewServer(nop); t.Cleanup(s.Close); return s.Listener.Addr().String() }},
	} {
		c := dialDoor(t, tc.addr())
		answer := make([]byte, 4096)
		allocs := testutil.AllocsPerRunAt(2, 200, func() {
			if _, err := c.Write(req); err != nil {
				t.Fatal(err)
			}
			// One answer is one read: its head is well under a segment.
			if n, err := c.Read(answer); err != nil || !bytes.HasPrefix(answer[:n], []byte("HTTP/1.1 200 OK\r\n")) {
				t.Fatalf("answer %q, %v", answer[:n], err)
			}
		})
		t.Logf("%s: %v objects per keep-alive request", tc.name, allocs)
		if allocs > tc.max {
			t.Fatalf("%s: %v objects per keep-alive request, want ≤ %v", tc.name, allocs, tc.max)
		}
	}
}
