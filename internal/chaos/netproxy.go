package chaos

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// netproxy.go: a TCP-level fault injector. The package's Backend wrapper
// exercises in-process failure modes (panics, errors, hangs), but the
// gateway's membership and failover machinery fails at a lower layer: the
// network. A blackholed shard accepts connections and never answers — no
// error, no RST, just a request pinned until its deadline. A partitioned
// shard refuses new connections and resets live ones. A dying shard cuts a
// response off mid-body. NetProxy reproduces all of these deterministically
// by sitting between the gateway and a real backend as a dumb TCP relay
// whose fault mode can be flipped at runtime:
//
//	px, _ := chaos.NewNetProxy("127.0.0.1:0", backendAddr)
//	gatewayDialsTo := px.Addr()            // route traffic through the proxy
//	px.SetFault(chaos.NetBlackhole)        // requests now hang silently
//	px.Heal()                              // and recover
//
// Fault transitions affect both new connections and (where meaningful)
// connections already in flight, because that is what real partitions do:
// NetPartition resets established connections, Heal unblocks blackholed
// ones (by closing them — the data lost in the hole stays lost, exactly
// like a healed network path with dropped packets).

// NetFault selects the proxy's failure behaviour.
type NetFault int

const (
	// NetNone relays traffic untouched.
	NetNone NetFault = iota
	// NetLatency relays traffic after delaying each copy direction's first
	// byte batch by the configured Latency — a congested or distant path.
	NetLatency
	// NetBlackhole accepts connections and swallows bytes in both
	// directions without ever forwarding or answering: the peer sees a
	// healthy TCP session that simply never responds. The classic
	// "process alive, service dead" failure, detectable only by deadline.
	NetBlackhole
	// NetPartition refuses new connections (immediate close) and resets
	// the ones already established: the shard has fallen off the network.
	NetPartition
	// NetResetMidBody relays the first ResetAfter bytes of each backend
	// response, then hard-resets the connection (SO_LINGER 0 → RST): a
	// shard dying mid-reply, leaving the client a truncated body.
	NetResetMidBody
	// NetSlowClose accepts and immediately half-closes without relaying:
	// the peer can write but reads EOF — a listener in a crashed state.
	NetSlowClose
)

func (f NetFault) String() string {
	switch f {
	case NetNone:
		return "none"
	case NetLatency:
		return "latency"
	case NetBlackhole:
		return "blackhole"
	case NetPartition:
		return "partition"
	case NetResetMidBody:
		return "reset-mid-body"
	case NetSlowClose:
		return "slow-close"
	default:
		return "unknown"
	}
}

// NetProxyStats counts proxy activity, for asserting that a fault actually
// engaged.
type NetProxyStats struct {
	// Accepted counts connections accepted (including ones then refused by
	// a fault); Refused counts connections closed by NetPartition or
	// NetSlowClose before relaying; Reset counts connections hard-reset
	// (partition or mid-body); Blackholed counts connections that entered a
	// blackhole.
	Accepted   uint64
	Refused    uint64
	Reset      uint64
	Blackholed uint64
	// BytesUp / BytesDown count relayed payload bytes (client→backend and
	// backend→client).
	BytesUp   uint64
	BytesDown uint64
}

// NetProxy is a runtime-switchable TCP fault injector in front of one
// backend address. Safe for concurrent use.
type NetProxy struct {
	ln      net.Listener
	backend string

	mu     sync.Mutex
	fault  NetFault
	hole   chan struct{} // closed on Heal/SetFault to release blackholed conns
	conns  map[net.Conn]struct{}
	closed bool

	// Latency is the per-direction first-copy delay under NetLatency.
	Latency time.Duration
	// ResetAfter is how many backend-response bytes NetResetMidBody relays
	// before resetting (default 1).
	ResetAfter int

	accepted, refused, reset, blackholed atomic.Uint64
	bytesUp, bytesDown                   atomic.Uint64

	done sync.WaitGroup
}

// NewNetProxy listens on listenAddr (use "127.0.0.1:0" for an ephemeral
// port) and relays every connection to backendAddr under the current fault
// mode (initially NetNone).
func NewNetProxy(listenAddr, backendAddr string) (*NetProxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &NetProxy{
		ln:         ln,
		backend:    backendAddr,
		hole:       make(chan struct{}),
		conns:      map[net.Conn]struct{}{},
		ResetAfter: 1,
	}
	p.done.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's dialable address.
func (p *NetProxy) Addr() string { return p.ln.Addr().String() }

// SetFault switches the fault mode. The switch applies to new connections
// immediately; NetPartition additionally resets connections already in
// flight, and leaving NetBlackhole releases (closes) the connections it
// had swallowed.
func (p *NetProxy) SetFault(f NetFault) {
	p.mu.Lock()
	p.fault = f
	// The generation channel releases anything waiting on the old fault
	// state (blackholed connections, latency sleeps).
	close(p.hole)
	p.hole = make(chan struct{})
	var toReset []net.Conn
	if f == NetPartition {
		for c := range p.conns {
			toReset = append(toReset, c)
		}
	}
	p.mu.Unlock()
	for _, c := range toReset {
		p.reset.Add(1)
		hardReset(c)
	}
}

// Heal returns the proxy to transparent relaying.
func (p *NetProxy) Heal() { p.SetFault(NetNone) }

// Stats snapshots the activity counters.
func (p *NetProxy) Stats() NetProxyStats {
	return NetProxyStats{
		Accepted:   p.accepted.Load(),
		Refused:    p.refused.Load(),
		Reset:      p.reset.Load(),
		Blackholed: p.blackholed.Load(),
		BytesUp:    p.bytesUp.Load(),
		BytesDown:  p.bytesDown.Load(),
	}
}

// Close stops the listener and closes every tracked connection.
func (p *NetProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	err := p.ln.Close()
	close(p.hole)
	p.hole = make(chan struct{})
	var conns []net.Conn
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	p.done.Wait()
	return err
}

func (p *NetProxy) acceptLoop() {
	defer p.done.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.accepted.Add(1)
		p.done.Add(1)
		go p.serve(c)
	}
}

// track registers a connection for fault-transition and Close handling;
// the returned func untracks it.
func (p *NetProxy) track(c net.Conn) func() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return func() {}
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
	}
}

func (p *NetProxy) serve(client net.Conn) {
	defer p.done.Done()
	untrack := p.track(client)
	defer untrack()
	defer client.Close()

	p.mu.Lock()
	fault, hole, latency := p.fault, p.hole, p.Latency
	p.mu.Unlock()

	switch fault {
	case NetPartition, NetSlowClose:
		// Refuse: partition closes outright; slow-close half-closes the
		// write side first so the peer reads EOF after a beat.
		p.refused.Add(1)
		if fault == NetSlowClose {
			if tc, ok := client.(*net.TCPConn); ok {
				tc.CloseWrite()
				time.Sleep(5 * time.Millisecond)
			}
		}
		return
	case NetBlackhole:
		p.blackholed.Add(1)
		p.swallow(client, hole)
		return
	}

	server, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	untrackSrv := p.track(server)
	defer untrackSrv()
	defer server.Close()

	if fault == NetLatency && latency > 0 {
		if !p.sleepLive(latency, hole) {
			return
		}
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		io.Copy(&countWriter{w: server, n: &p.bytesUp}, client)
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite() // propagate the client's half-close
		}
	}()
	go func() {
		defer wg.Done()
		if fault == NetResetMidBody {
			limit := int64(p.ResetAfter)
			if limit < 1 {
				limit = 1
			}
			io.CopyN(&countWriter{w: client, n: &p.bytesDown}, server, limit)
			// Count before sending the RST: the peer must never observe the
			// reset while Stats still reads zero.
			p.reset.Add(1)
			hardReset(client)
			server.Close()
			return
		}
		io.Copy(&countWriter{w: client, n: &p.bytesDown}, server)
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	wg.Wait()
}

// swallow reads and discards client bytes until the hole is healed (the
// generation channel closes) or the peer gives up. Healing closes the
// connection: the bytes that fell in the hole are gone, as on a real
// healed path.
func (p *NetProxy) swallow(client net.Conn, hole <-chan struct{}) {
	dead := make(chan struct{})
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		buf := make([]byte, 4096)
		for {
			if _, err := client.Read(buf); err != nil {
				close(dead)
				return
			}
		}
	}()
	select {
	case <-hole:
		client.Close() // releases the reader goroutine too
		<-dead
	case <-dead:
	}
}

// sleepLive pauses for d unless the fault generation changes (hole closes)
// first; reports whether the pause ran to completion.
func (p *NetProxy) sleepLive(d time.Duration, cancel <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return true // fault lifted mid-latency: just proceed
	}
}

// countWriter records relayed bytes as they flow, so Stats observes
// traffic while connections are still open.
type countWriter struct {
	w io.Writer
	n *atomic.Uint64
}

// Write counts b before writing it: once the bytes land, the peer can read
// them (and the echo of them) and call Stats before Write returns here. A
// short write takes back what did not go.
func (c *countWriter) Write(b []byte) (int, error) {
	c.n.Add(uint64(len(b)))
	n, err := c.w.Write(b)
	if n < len(b) {
		c.n.Add(-uint64(len(b) - n))
	}
	return n, err
}

// hardReset aborts a TCP connection with an RST instead of a FIN
// (SO_LINGER 0), so the peer sees ECONNRESET — the signature of a process
// killed mid-reply — rather than a clean EOF it could mistake for a
// complete response.
func hardReset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
