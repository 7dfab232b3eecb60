package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// server.go: the HTTP/1.1 server both doors run. One goroutine per
// connection reads each request head from the connection's own buffer into
// a request, header map, body reader and ResponseWriter it reuses for every
// request, and writes each answer in one write: status line, headers,
// Content-Length, body. Every answer is framed by Content-Length, never
// chunked, and nothing is sniffed: the handlers set Content-Type.
//
// The rules it keeps, each the behaviour net/http.Server has:
//
//   - A head reads as net/http.Server reads it (head.go); one larger than
//     the connection's 16 KiB buffer is a 431.
//   - A Content-Length body is read straight from the connection, a chunked
//     one through httputil.NewChunkedReader; Expect: 100-continue gets its
//     interim 100 on the handler's first body read. A body the handler left
//     unread is drained up to 256 KiB, and past that the connection closes.
//   - HTTP/1.1 connections persist; Connection: close, or HTTP/1.0 without
//     keep-alive, closes after the answer, which says so. Pipelined
//     requests are answered in order.
//   - r.Context() is cancelled when the peer closes the connection. It is
//     one context per connection, and the one-byte read that watches the
//     peer runs only once a handler has waited on Done for watchDelay.
//   - A handler panic is logged as net/http logs it, and closes the
//     connection; http.ErrAbortHandler closes it without a log line.
//   - Shutdown closes the listeners, then the idle connections, answers
//     every request already being read or run, and waits for them, bounded
//     by its context. Temporary accept errors back off from 5 ms to 1 s.
//
// A handler must not keep the request, its header map or the
// ResponseWriter past its return: the next request on the connection
// reuses them.

const (
	// headBufBytes is each connection's read buffer, and so the largest
	// request head it accepts.
	headBufBytes = 16 << 10
	// maxDrainBytes is how much unread body is discarded to keep a
	// connection; net/http's maxPostHandlerReadBytes.
	maxDrainBytes = 256 << 10
	// maxRetainBytes bounds the answer buffer a connection keeps between
	// requests.
	maxRetainBytes = 64 << 10
	// rstAvoidanceDelay is how long a connection closed with request bytes
	// unread waits after its answer, so the peer reads the answer before
	// the reset; net/http's value.
	rstAvoidanceDelay = 500 * time.Millisecond
	// watchDelay is how long a handler waits on Done before the peer watch
	// starts: far above a served request's time, so a request that is
	// answered at once costs no watch, and short enough that one queued
	// behind others is still shed soon after its caller leaves.
	watchDelay = 5 * time.Millisecond
)

// Server serves Handler over HTTP/1.1 keep-alive connections. The zero
// value with a Handler is ready to Serve.
type Server struct {
	Handler http.Handler

	inShutdown atomic.Bool
	mu         sync.Mutex
	listeners  map[net.Listener]struct{}
	conns      map[*conn]struct{}
}

// Serve accepts connections on ln and serves each on its own goroutine
// until ln fails or Shutdown closes it; it then returns
// http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	if !s.track(ln) {
		ln.Close()
		return http.ErrServerClosed
	}
	defer s.untrack(ln)
	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return http.ErrServerClosed
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("http: Accept error: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := s.newConn(rwc)
		if c == nil {
			rwc.Close()
			continue
		}
		go c.serve()
	}
}

// Shutdown stops the server as http.Server.Shutdown does: the listeners
// close first, so new connections are refused; connections idle between
// requests close; every request already being read or run is answered, and
// Shutdown returns once no connection is left, or with ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.mu.Lock()
	var err error
	for ln := range s.listeners {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.mu.Unlock()

	wait := time.Millisecond
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		if s.closeIdle() {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			wait = min(2*wait, 500*time.Millisecond)
			timer.Reset(wait)
		}
	}
}

// closeIdle closes every idle connection, reporting whether none is left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			c.rwc.Close()
			delete(s.conns, c)
		}
	}
	return len(s.conns) == 0
}

func (s *Server) track(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() {
		return false
	}
	if s.listeners == nil {
		s.listeners = map[net.Listener]struct{}{}
	}
	s.listeners[ln] = struct{}{}
	return true
}

func (s *Server) untrack(ln net.Listener) {
	s.mu.Lock()
	delete(s.listeners, ln)
	s.mu.Unlock()
}

// A connection's state, as Shutdown reads it.
const (
	stateIdle   int32 = iota // accepted, or waiting for the next request's first byte
	stateActive              // reading or running a request
	stateClosed              // closed by Shutdown
)

// conn is one connection and everything its requests reuse.
type conn struct {
	srv        *Server
	rwc        net.Conn
	remoteAddr string
	state      atomic.Int32

	buf        []byte // the read buffer; buf[start:end] is read and unparsed
	start, end int
	scanned    int // bytes of buf[start:end] searched for the head's end

	ctx    *connContext
	cancel context.CancelFunc
	head   *headParser
	body   body
	resp   response

	// The peer watch: a one-byte read that cancels ctx when the peer
	// leaves. It starts from the connection's one timer, watchDelay after a
	// handler first waits on Done, and only if that handler still runs.
	watchMu    sync.Mutex
	watch      int
	watchTimer *time.Timer // made at the connection's first wait, then reset
	staleFires int         // fires of timers stopWatch stopped too late, to ignore
	watchWG    sync.WaitGroup
	watchByte  [1]byte
	watchGot   bool // the watch read the next request's first byte; under watchMu
	peerGone   bool // the watch saw the peer close; written under watchMu

	iov  [2][]byte
	bufs net.Buffers

	dateSec int64
	date    []byte
}

// The watch's states.
const (
	watchOff     = iota // no handler is running, or the peer cannot be watched
	watchArmed          // a handler runs and its body is read: Done arms the timer
	watchPending        // a handler runs and its body is not read yet
	watchWanted         // Done was called before the body was read
	watchTimed          // the timer runs: its fire starts the watch
	watchRunning
)

// connContext is the connection's context. Done starts the peer watch;
// everything else, and the cancelCtx that WithTimeout and AfterFunc
// children attach to without a goroutine, is the embedded WithCancel.
type connContext struct {
	context.Context
	c *conn
}

func (x *connContext) Done() <-chan struct{} {
	x.c.wantWatch()
	return x.Context.Done()
}

func (s *Server) newConn(rwc net.Conn) *conn {
	c := &conn{
		srv:        s,
		rwc:        rwc,
		remoteAddr: rwc.RemoteAddr().String(),
		buf:        make([]byte, headBufBytes),
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.ctx, c.cancel = &connContext{Context: ctx, c: c}, cancel
	c.head = newHeadParser((&http.Request{RemoteAddr: c.remoteAddr}).WithContext(c.ctx))
	c.body.c = c
	c.resp = response{c: c, hdr: make(http.Header)}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() {
		cancel()
		return nil
	}
	if s.conns == nil {
		s.conns = map[*conn]struct{}{}
	}
	s.conns[c] = struct{}{}
	return c
}

// serve answers the connection's requests until one closes it.
func (c *conn) serve() {
	defer c.close()
	for {
		head, err := c.readHead()
		if err == nil {
			err = c.head.parse(head)
		}
		if err != nil {
			var he *headError
			if errors.As(err, &he) {
				c.writeRefusal(he)
			}
			return
		}
		c.start += len(head)
		c.scanned = 0
		if !c.serveRequest() {
			return
		}
	}
}

// close recovers a handler panic, logging it as net/http does, and closes
// the connection.
func (c *conn) close() {
	if v := recover(); v != nil && v != http.ErrAbortHandler {
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, false)]
		log.Printf("http: panic serving %v: %v\n%s", c.remoteAddr, v, buf)
	}
	c.rwc.Close()
	c.cancel()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
}

// readHead reads until buf[start:] holds a whole head, ending at its
// blank line, and returns it.
func (c *conn) readHead() ([]byte, error) {
	for {
		if c.start < c.end {
			if n, err := c.headEnd(); n > 0 || err != nil {
				return c.buf[c.start : c.start+n], err
			}
		} else {
			c.start, c.end, c.scanned = 0, 0, 0
			if !c.setState(stateIdle) {
				return nil, net.ErrClosed
			}
			if c.srv.inShutdown.Load() {
				return nil, http.ErrServerClosed
			}
		}
		if c.end == len(c.buf) {
			if c.start == 0 {
				return nil, errHeadTooLarge
			}
			c.end = copy(c.buf, c.buf[c.start:c.end])
			c.start = 0
		}
		n, err := c.rwc.Read(c.buf[c.end:])
		if n > 0 && c.state.Load() != stateActive && !c.setState(stateActive) {
			return nil, net.ErrClosed
		}
		c.end += n
		if err != nil && n == 0 {
			return nil, err
		}
	}
}

// headEnd returns the length of the head in buf[start:end] through its
// blank line, or 0 while the blank line has not arrived. A head whose
// request line is blank is refused.
func (c *conn) headEnd() (int, error) {
	b := c.buf[c.start:c.end]
	if len(b) > 0 && b[0] == '\n' || len(b) > 1 && b[0] == '\r' && b[1] == '\n' {
		return 0, errBadRequest
	}
	for i := c.scanned; i < len(b); i++ {
		if b[i] != '\n' {
			continue
		}
		switch {
		case i+1 < len(b) && b[i+1] == '\n':
			return i + 2, nil
		case i+2 < len(b) && b[i+1] == '\r' && b[i+2] == '\n':
			return i + 3, nil
		case i+2 >= len(b):
			c.scanned = i // the blank line may still be arriving
			return 0, nil
		}
	}
	c.scanned = len(b)
	return 0, nil
}

// setState moves the connection to st unless Shutdown has closed it.
func (c *conn) setState(st int32) bool {
	for {
		old := c.state.Load()
		if old == stateClosed {
			return false
		}
		if c.state.CompareAndSwap(old, st) {
			return true
		}
	}
}

// serveRequest runs the handler on the parsed request and answers it,
// reporting whether the connection carries another request.
func (c *conn) serveRequest() bool {
	req := c.head.req
	c.body.reset(req.ContentLength, c.head.chunked)
	if expect := req.Header.Get("Expect"); expect != "" {
		if !hasToken(expect, "100-continue") {
			c.writeRefusal(&headError{code: http.StatusExpectationFailed})
			return false
		}
		c.body.needContinue = req.ProtoMinor >= 1 && req.ContentLength != 0
	}
	req.Body = http.NoBody
	if !c.body.done {
		req.Body = &c.body
	}
	c.resp.reset(req)

	c.watchMu.Lock()
	c.watch = watchPending
	if c.body.done {
		c.watch = c.armable()
	}
	c.watchMu.Unlock()
	c.srv.Handler.ServeHTTP(&c.resp, req)
	c.stopWatch()

	keep := !req.Close && !c.peerGone && !c.srv.inShutdown.Load()
	if keep && !c.body.done {
		keep = c.body.drain()
	}
	if err := c.resp.finish(keep); err != nil || !keep {
		// Request bytes left unread would reset the connection under the
		// answer: stop writing and give the peer time to read it first.
		if err == nil && !c.body.done && !c.body.needContinue {
			if tc, ok := c.rwc.(interface{ CloseWrite() error }); ok {
				_ = tc.CloseWrite()
				time.Sleep(rstAvoidanceDelay)
			}
		}
		return false
	}
	return true
}

// armable is the watch state once the body is read: armed, unless more
// bytes already wait in the buffer — a pipelined request, whose arrival
// says the peer is there.
func (c *conn) armable() int {
	if c.start == c.end {
		return watchArmed
	}
	return watchOff
}

// wantWatch starts the peer watch's timer, or marks it wanted until the
// body is read (reading the connection before then would take body bytes).
func (c *conn) wantWatch() {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	switch c.watch {
	case watchArmed:
		c.startWatchLocked()
	case watchPending:
		c.watch = watchWanted
	}
}

// bodyRead is called once the handler has read the body to its end.
func (c *conn) bodyRead() {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	switch c.watch {
	case watchPending:
		c.watch = c.armable()
	case watchWanted:
		if c.watch = c.armable(); c.watch == watchArmed {
			c.startWatchLocked()
		}
	}
}

// startWatchLocked arms the timer that starts the watch watchDelay from
// now.
func (c *conn) startWatchLocked() {
	c.watch = watchTimed
	if c.watchTimer == nil {
		c.watchTimer = time.AfterFunc(watchDelay, c.watchPeer)
	} else {
		c.watchTimer.Reset(watchDelay)
	}
}

// watchPeer is the timer's fire. Unless the handler it was armed for has
// returned, it reads one byte: the next request's first, a past deadline
// (stopWatch), or the peer leaving, which cancels the context.
func (c *conn) watchPeer() {
	c.watchMu.Lock()
	if c.staleFires > 0 {
		c.staleFires--
		c.watchMu.Unlock()
		return
	}
	if c.watch != watchTimed {
		c.watchMu.Unlock()
		return
	}
	c.watch = watchRunning
	c.watchWG.Add(1)
	c.watchMu.Unlock()
	defer c.watchWG.Done()

	n, err := c.rwc.Read(c.watchByte[:])
	gone := n == 0 && !errors.Is(err, os.ErrDeadlineExceeded)
	c.watchMu.Lock()
	c.watchGot, c.peerGone = n > 0, gone
	c.watchMu.Unlock()
	if gone {
		c.cancel()
	}
}

// pastDeadline is a deadline every clock has passed.
var pastDeadline = time.Unix(1, 0)

// stopWatch ends the handler's watch: a timer not yet fired is stopped, a
// past read deadline stops a running watch, and a byte it read becomes the
// first of the next request. A timer that fired but has not yet taken the
// lock finds its fire counted stale: whichever fire comes next is ignored,
// so the next request's watch never starts sooner than watchDelay.
func (c *conn) stopWatch() {
	c.watchMu.Lock()
	st := c.watch
	c.watch = watchOff
	if st == watchTimed && !c.watchTimer.Stop() {
		c.staleFires++
	}
	c.watchMu.Unlock()
	if st != watchRunning {
		return
	}
	_ = c.rwc.SetReadDeadline(pastDeadline)
	c.watchWG.Wait()
	_ = c.rwc.SetReadDeadline(time.Time{})
	c.watchMu.Lock()
	got := c.watchGot
	c.watchGot = false
	c.watchMu.Unlock()
	if got {
		c.buf[0] = c.watchByte[0]
		c.start, c.end = 0, 1
	}
}

// writeRefusal answers a request the door refuses before any handler, as
// net/http does, and leaves the connection to close.
func (c *conn) writeRefusal(e *headError) {
	msg := e.Error()
	b := append(c.resp.head[:0], "HTTP/1.1 "...)
	b = append(b, strconv.Itoa(e.code)...)
	b = append(b, ' ')
	b = append(b, http.StatusText(e.code)...)
	b = append(b, "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(msg)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, msg...)
	_, _ = c.rwc.Write(b)
}

// httpDate returns the Date header value, formatted once per second.
func (c *conn) httpDate() []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec || c.date == nil {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// body is the request body reader a connection reuses.
type body struct {
	c            *conn
	remaining    int64         // Content-Length bytes not yet read
	chunked      io.Reader     // the chunked decoder, nil for a Content-Length body
	chunkedBuf   *bufio.Reader // what the decoder reads through
	done         bool          // read to its end
	closed       bool
	needContinue bool // Expect: 100-continue, the 100 not yet sent
	err          error
}

func (b *body) reset(contentLength int64, chunked bool) {
	*b = body{c: b.c, remaining: contentLength}
	if chunked {
		b.chunkedBuf = bufio.NewReader(b.c)
		b.chunked = httputil.NewChunkedReader(b.chunkedBuf)
		b.remaining = 0
	}
	b.done = !chunked && contentLength == 0
}

// Close marks the body closed; what is left of it is drained or closes the
// connection once the handler returns.
func (b *body) Close() error {
	b.closed = true
	return nil
}

func (b *body) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.done {
		return 0, io.EOF
	}
	if b.err != nil {
		return 0, b.err
	}
	if b.needContinue {
		b.needContinue = false
		if _, err := io.WriteString(b.c.rwc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			b.err = err
			return 0, err
		}
	}
	if b.chunked != nil {
		n, err := b.chunked.Read(p)
		if err == io.EOF {
			if err = b.endChunked(); err == nil {
				b.finish()
				return n, io.EOF
			}
		}
		if err != nil {
			b.err = err
		}
		return n, err
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.c.Read(p)
	b.remaining -= int64(n)
	if b.remaining == 0 {
		b.finish()
		return n, io.EOF
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		b.err = err
	}
	return n, err
}

func (b *body) finish() {
	b.done = true
	b.c.bodyRead()
}

// endChunked reads the trailer section after the last chunk and hands the
// bytes the decoder's buffer read past it back to the connection.
func (b *body) endChunked() error {
	br := b.chunkedBuf
	if crlf, err := br.Peek(2); err != nil {
		return io.ErrUnexpectedEOF
	} else if crlf[0] == '\r' && crlf[1] == '\n' {
		_, _ = br.Discard(2)
	} else {
		// A trailer must end within the decoder's buffer, as net/http
		// bounds it.
		for n := 4; ; n++ {
			peek, err := br.Peek(n)
			if bytes.HasSuffix(peek, []byte("\r\n\r\n")) {
				break
			}
			if err != nil {
				return errors.New("http: suspiciously long trailer after chunked body")
			}
		}
		if _, err := textproto.NewReader(br).ReadMIMEHeader(); err != nil {
			return err
		}
	}
	left, _ := br.Peek(br.Buffered())
	c := b.c
	if len(left)+c.end-c.start > len(c.buf) {
		return errors.New("http: pipelined bytes past a chunked body overflow the buffer")
	}
	copy(c.buf[len(left):], c.buf[c.start:c.end])
	copy(c.buf, left)
	c.start, c.end = 0, len(left)+c.end-c.start
	return nil
}

// drain discards up to maxDrainBytes of unread body, reporting whether it
// reached the end.
func (b *body) drain() bool {
	if b.needContinue || b.chunked == nil && b.remaining > maxDrainBytes {
		return false // never asked for, or too much to read for nothing
	}
	b.closed = false // the handler is done with it
	_, err := io.CopyN(io.Discard, b, maxDrainBytes+1)
	return err == io.EOF && b.done
}

// Read reads the connection through its buffer: buffered bytes first, then
// straight into p.
func (c *conn) Read(p []byte) (int, error) {
	if c.start < c.end {
		n := copy(p, c.buf[c.start:c.end])
		c.start += n
		return n, nil
	}
	if len(p) == 0 {
		return 0, nil
	}
	return c.rwc.Read(p)
}

// response is the ResponseWriter a connection reuses. The head is written
// when the status is, so later header changes are ignored as net/http
// ignores them; the body is buffered whole and sent with the head in one
// write.
type response struct {
	c           *conn
	req         *http.Request
	hdr         http.Header
	status      int
	wroteHeader bool
	head        []byte
	body        []byte
}

func (w *response) reset(req *http.Request) {
	clear(w.hdr)
	w.req, w.status, w.wroteHeader = req, 0, false
	w.body = w.body[:0]
}

func (w *response) Header() http.Header { return w.hdr }

// WriteHeader writes the status line and the handler's headers.
// Content-Length, Transfer-Encoding, Connection and Date are the server's
// to write, and there are no informational (1xx) answers.
func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic("invalid WriteHeader code " + strconv.Itoa(code))
	}
	if code < 200 {
		return
	}
	w.wroteHeader, w.status = true, code
	proto := "HTTP/1.1 "
	if w.req.ProtoMinor == 0 {
		proto = "HTTP/1.0 "
	}
	h := append(w.head[:0], proto...)
	h = strconv.AppendInt(h, int64(code), 10)
	h = append(h, ' ')
	if text := http.StatusText(code); text != "" {
		h = append(h, text...)
	} else {
		h = append(h, "status code "...)
		h = strconv.AppendInt(h, int64(code), 10)
	}
	h = append(h, "\r\n"...)
	for k, vv := range w.hdr {
		switch k {
		case "Content-Length", "Transfer-Encoding", "Connection", "Date":
			continue
		}
		if !isToken(k) {
			continue
		}
		for _, v := range vv {
			h = append(h, k...)
			h = append(h, ": "...)
			h = appendHeaderValue(h, v)
			h = append(h, "\r\n"...)
		}
	}
	w.head = h
}

// appendHeaderValue appends v with line breaks as spaces and the ends
// trimmed, as net/http writes a header value.
func appendHeaderValue(dst []byte, v string) []byte {
	i, j := 0, len(v)
	for i < j && asciiSpace(v[i]) {
		i++
	}
	for j > i && asciiSpace(v[j-1]) {
		j--
	}
	for k := i; k < j; k++ {
		if c := v[k]; c == '\r' || c == '\n' {
			dst = append(dst, v[i:k]...)
			dst = append(dst, ' ')
			i = k + 1
		}
	}
	return append(dst, v[i:j]...)
}

func asciiSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (w *response) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// finish completes the head — Date, Content-Length, Connection — and
// writes head and body in one write.
func (w *response) finish(keep bool) error {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	h := append(w.head, "Date: "...)
	h = append(h, w.c.httpDate()...)
	h = append(h, "\r\n"...)
	body := w.body
	isHead := w.req.Method == http.MethodHead
	if bodyAllowed(w.status) && !(isHead && len(body) == 0) {
		h = append(h, "Content-Length: "...)
		h = strconv.AppendInt(h, int64(len(body)), 10)
		h = append(h, "\r\n"...)
	}
	switch {
	case !keep:
		h = append(h, "Connection: close\r\n"...)
	case w.req.ProtoMinor == 0:
		h = append(h, "Connection: keep-alive\r\n"...)
	}
	h = append(h, "\r\n"...)
	w.head = h
	if isHead {
		body = nil
	}
	c := w.c
	c.iov = [2][]byte{h, body}
	c.bufs = c.iov[:]
	_, err := c.bufs.WriteTo(c.rwc)
	c.iov = [2][]byte{}
	if cap(w.body) > maxRetainBytes {
		w.body = nil
	}
	return err
}
