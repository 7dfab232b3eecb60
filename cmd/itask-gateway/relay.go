package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"itask/internal/gateway"
	"itask/internal/wire"
)

// relay.go: the gateway's one client to its shards, a synchronous HTTP/1.1
// exchange on a pooled keep-alive connection. The calling goroutine writes
// the request — head and body in one writev — and reads the answer itself
// into a pooled wire.Buf: the common answer head in place from the
// connection's buffer (wire.ReadAnswerHead), any other with
// http.ReadResponse. The context's deadline and cancellation reach the
// socket as connection deadlines: an exchange first runs on a deadline
// firstSlice away, and only one still blocked when it passes takes the
// context's own deadline and hooks the context's end (waitOn). No other
// goroutine touches the request, so a forwarded body is the caller's again
// the moment the exchange returns, on every path.

// maxIdlePerShard caps the idle keep-alive connections kept to one shard. A
// shard admits at most its queue (serve.DefaultConfig's QueueCap, 256) plus
// its workers at once and refuses the rest with 429, so a gateway never has
// more useful requests in flight to one shard than that; keeping that many
// warm means a connection is only ever closed after an answer when the shard
// is already refusing work.
const maxIdlePerShard = 256

// maxProxyBytes bounds how much of a backend response the gateway buffers:
// the detect response for a dense frame is well under 1 MiB, and a runaway
// body must not balloon the gateway.
const maxProxyBytes = 8 << 20

// connPool holds the idle keep-alive connections to every shard, keyed by
// shard base URL. The app owns it, so a shard that leaves and rejoins — a
// fresh httpNode — finds the connections its last incarnation parked.
type connPool struct {
	dial func(ctx context.Context, addr string) (net.Conn, error)

	mu     sync.Mutex
	shards map[string]*idleConns
}

// idleConns is one shard's idle connections, most recently parked last.
type idleConns struct {
	mu    sync.Mutex
	conns []*relayConn
}

func newConnPool() *connPool {
	var d net.Dialer
	return &connPool{
		dial:   func(ctx context.Context, addr string) (net.Conn, error) { return d.DialContext(ctx, "tcp", addr) },
		shards: map[string]*idleConns{},
	}
}

func (p *connPool) forShard(base string) *idleConns {
	p.mu.Lock()
	defer p.mu.Unlock()
	ic := p.shards[base]
	if ic == nil {
		ic = &idleConns{}
		p.shards[base] = ic
	}
	return ic
}

// get pops the most recently parked connection: the one least likely to
// have been closed by the shard while it sat idle.
func (ic *idleConns) get() *relayConn {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	n := len(ic.conns)
	if n == 0 {
		return nil
	}
	c := ic.conns[n-1]
	ic.conns[n-1] = nil
	ic.conns = ic.conns[:n-1]
	return c
}

func (ic *idleConns) put(c *relayConn) {
	ic.mu.Lock()
	if len(ic.conns) < maxIdlePerShard {
		ic.conns = append(ic.conns, c)
		ic.mu.Unlock()
		return
	}
	ic.mu.Unlock()
	c.conn.Close()
}

// firstSlice is how long an exchange runs on its first socket deadline
// before it counts as having waited: far above a relayed answer's time, so
// an exchange answered at once never hooks its context, and short enough
// that a cancelled one still ends soon after its caller left.
const firstSlice = 5 * time.Millisecond

// relayConn is one keep-alive connection and the state an exchange on it
// reuses: the read buffer, the request head, the write vector and the
// answer head, and the current exchange's context.
type relayConn struct {
	conn     net.Conn
	br       *bufio.Reader
	head     []byte
	iov      [2][]byte
	bufs     net.Buffers
	answer   wire.AnswerHead
	answered bool // a byte of the current answer has arrived

	ctx    context.Context
	waited bool        // the first slice has passed
	stop   func() bool // unhooks ctx's end, once waited
}

func newRelayConn(conn net.Conn) *relayConn {
	c := &relayConn{conn: conn}
	c.br = bufio.NewReader(c)
	return c
}

func (c *relayConn) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	for n == 0 && c.waitOn(err) {
		n, err = c.conn.Read(p)
	}
	if n > 0 {
		c.answered = true
	}
	return n, err
}

// waitOn reports whether err is the end of the exchange's first slice. If
// it is, the exchange has waited: the socket takes the context's deadline,
// the context's end poisons it with a past one, and the blocked I/O goes
// on.
func (c *relayConn) waitOn(err error) bool {
	if c.waited || !errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	c.waited = true
	d, _ := c.ctx.Deadline() // the zero time for none
	if c.conn.SetDeadline(d) != nil {
		return false
	}
	c.stop = context.AfterFunc(c.ctx, func() { c.conn.SetDeadline(pastDeadline) })
	return true
}

// header is one forwarded request header line.
type header struct{ name, value string }

// shardURL is a shard base URL split into what an exchange needs: the
// address to dial, the Host header and the path prefix of every endpoint.
// The relay speaks plain HTTP, which is what itask-serve serves.
type shardURL struct {
	addr, host, prefix string
}

func parseShardURL(base string) (shardURL, error) {
	u, err := url.Parse(base)
	if err != nil {
		return shardURL{}, err
	}
	if u.Scheme != "http" || u.Host == "" {
		return shardURL{}, fmt.Errorf("%s: want an http://host[:port] base URL", base)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return shardURL{
		addr:   net.JoinHostPort(u.Hostname(), port),
		host:   u.Host,
		prefix: strings.TrimSuffix(u.EscapedPath(), "/"),
	}, nil
}

// roundTrip sends one request to the shard and reads its whole answer, up
// to maxProxyBytes, into a pooled buffer the caller releases. A reused
// connection that fails before the first answer byte was a keep-alive the
// shard had closed, and the request goes once more on a fresh dial; any
// other I/O failure is ClassNodeDown, or the context's error once the
// context has ended. A header value holding CR or LF would end its line
// early and is refused as ClassRequest.
func (n *httpNode) roundTrip(ctx context.Context, method, endpoint string, body []byte, hdrs ...header) (*backendResponse, error) {
	for _, h := range hdrs {
		if strings.ContainsAny(h.value, "\r\n") {
			return nil, &gateway.NodeError{Class: gateway.ClassRequest, Err: fmt.Errorf("%s header value holds a line break", h.name)}
		}
	}
	for fresh := false; ; fresh = true {
		c, reused, err := n.conn(ctx, fresh)
		if err != nil {
			return nil, n.failure(ctx, err)
		}
		br, keep, err := c.exchange(ctx, &n.url, method, endpoint, body, hdrs)
		switch {
		case err == nil && keep:
			n.idle.put(c)
			return br, nil
		case err == nil:
			c.conn.Close()
			return br, nil
		}
		c.conn.Close()
		if !reused || c.answered || ctx.Err() != nil {
			return nil, n.failure(ctx, err)
		}
	}
}

// conn takes an idle connection to the shard, or dials one when there is
// none or fresh is set.
func (n *httpNode) conn(ctx context.Context, fresh bool) (c *relayConn, reused bool, err error) {
	if !fresh {
		if c := n.idle.get(); c != nil {
			return c, true, nil
		}
	}
	conn, err := n.pool.dial(ctx, n.url.addr)
	if err != nil {
		return nil, false, err
	}
	return newRelayConn(conn), false, nil
}

// failure maps an exchange's I/O error to what Execute reads. The context's
// deadline is also the connection's, so a timeout can surface a moment
// before ctx.Err() does; once the deadline has passed, the context's error
// is the answer.
func (n *httpNode) failure(ctx context.Context, err error) error {
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return &gateway.NodeError{Class: gateway.ClassNodeDown, Err: fmt.Errorf("%s: %w", n.base, err)}
}

// pastDeadline is a deadline every clock has passed: setting it fails the
// connection's blocked and future I/O at once.
var pastDeadline = time.Unix(1, 0)

// exchange writes one request and reads its answer on the calling
// goroutine. The socket's deadline is the context's, or firstSlice from
// now when that is sooner; I/O still blocked at the slice's end goes on
// under waitOn. keep reports whether the connection may carry another
// request: the answer ended exactly at its framing (one more Read is 0 and
// io.EOF, and nothing past it has arrived), the shard did not ask to close,
// and the context never fired on it.
func (c *relayConn) exchange(ctx context.Context, u *shardURL, method, endpoint string, body []byte, hdrs []header) (br *backendResponse, keep bool, err error) {
	c.answered, c.waited = false, false
	c.ctx = ctx
	slice := time.Now().Add(firstSlice)
	if d, ok := ctx.Deadline(); ok && d.Before(slice) {
		slice = d
	}
	if err := c.conn.SetDeadline(slice); err != nil {
		return nil, false, err
	}
	defer func() {
		if c.stop != nil && !c.stop() {
			keep = false // the deadline was, or is being, poisoned
		}
		c.ctx, c.stop = nil, nil
	}()

	c.head = appendHead(c.head[:0], u, method, endpoint, body, hdrs)
	c.iov = [2][]byte{c.head, body}
	for c.bufs = c.iov[:]; len(c.bufs) > 0; {
		// A writev cut short leaves the unwritten rest in c.bufs.
		if _, err := c.bufs.WriteTo(c.conn); err != nil && !c.waitOn(err) {
			return nil, false, err
		}
	}

	return readAnswer(c.br, &c.answer)
}

// readAnswer reads one answer from br: its head into h, or with
// http.ReadResponse when it is not the common head, and its body, up to
// maxProxyBytes, into a pooled buffer. keep reports that the answer ended
// exactly at its framing, with nothing past it buffered, and did not ask to
// close.
func readAnswer(br *bufio.Reader, h *wire.AnswerHead) (*backendResponse, bool, error) {
	if !wire.ReadAnswerHead(br, h) {
		return readResponse(br)
	}
	buf, err := wire.ReadFull(br, int(min(h.ContentLength, maxProxyBytes)))
	if err != nil {
		return nil, false, fmt.Errorf("reading the answer: %w", err)
	}
	keep := !h.Close && h.ContentLength <= maxProxyBytes && br.Buffered() == 0
	return &backendResponse{
		status:      h.Status,
		contentType: h.ContentType,
		retryAfter:  h.RetryAfter,
		degraded:    h.Degraded,
		tenant:      h.Tenant,
		body:        buf.Bytes(),
		buf:         buf,
	}, keep, nil
}

// readResponse reads an answer whose head is not the common one.
func readResponse(br *bufio.Reader) (*backendResponse, bool, error) {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, false, err
	}
	hint := int(resp.ContentLength)
	if hint < 0 || hint > maxProxyBytes {
		hint = 0
	}
	buf, err := wire.ReadAll(io.LimitReader(resp.Body, maxProxyBytes), hint)
	if err != nil {
		return nil, false, fmt.Errorf("reading the answer: %w", err)
	}
	var probe [1]byte
	m, perr := resp.Body.Read(probe[:])
	keep := m == 0 && errors.Is(perr, io.EOF) && !resp.Close && br.Buffered() == 0
	return &backendResponse{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		degraded:    resp.Header.Get("X-Itask-Degraded"),
		tenant:      resp.Header.Get("X-Itask-Tenant"),
		body:        buf.Bytes(),
		buf:         buf,
	}, keep, nil
}

// appendHead writes the request line and header block. A GET declares no
// body, as net/http's client sends it; every other method declares its
// body's length.
func appendHead(dst []byte, u *shardURL, method, endpoint string, body []byte, hdrs []header) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, u.prefix...)
	dst = append(dst, endpoint...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, u.host...)
	if method != http.MethodGet {
		dst = append(dst, "\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
	}
	for _, h := range hdrs {
		dst = append(dst, "\r\n"...)
		dst = append(dst, h.name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.value...)
	}
	return append(dst, "\r\n\r\n"...)
}
