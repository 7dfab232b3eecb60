package chaos_test

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"itask/internal/chaos"
)

// echoBackend is a real TCP server that echoes every byte, the ground
// truth behind the proxy under test.
func echoBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String()
}

func newProxy(t *testing.T, backend string) *chaos.NetProxy {
	t.Helper()
	p, err := chaos.NewNetProxy("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// roundTrip writes msg and reads the echo back through conn.
func roundTrip(c net.Conn, msg string) (string, error) {
	if _, err := c.Write([]byte(msg)); err != nil {
		return "", err
	}
	buf := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := io.ReadFull(c, buf)
	return string(buf[:n]), err
}

func TestNetProxyRelay(t *testing.T) {
	p := newProxy(t, echoBackend(t))
	c := dial(t, p.Addr())
	got, err := roundTrip(c, "hello fleet")
	if err != nil || got != "hello fleet" {
		t.Fatalf("relay: %q err=%v", got, err)
	}
	st := p.Stats()
	if st.Accepted != 1 || st.BytesUp == 0 || st.BytesDown == 0 {
		t.Fatalf("stats after relay: %+v", st)
	}
}

func TestNetProxyLatency(t *testing.T) {
	p := newProxy(t, echoBackend(t))
	p.Latency = 60 * time.Millisecond
	p.SetFault(chaos.NetLatency)
	c := dial(t, p.Addr())
	start := time.Now()
	if got, err := roundTrip(c, "slow"); err != nil || got != "slow" {
		t.Fatalf("latency relay: %q err=%v", got, err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("round trip took %v, want >= injected 60ms", d)
	}
}

// A blackholed connection looks alive but never answers — the only way out
// is the client's own deadline. Healing closes the starved connections;
// traffic after the heal flows again.
func TestNetProxyBlackholeAndHeal(t *testing.T) {
	p := newProxy(t, echoBackend(t))
	p.SetFault(chaos.NetBlackhole)

	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("anyone home?")); err != nil {
		t.Fatalf("write into blackhole failed outright: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(80 * time.Millisecond))
	buf := make([]byte, 16)
	if n, err := c.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackhole read: n=%d err=%v, want deadline timeout", n, err)
	}
	if st := p.Stats(); st.Blackholed != 1 || st.BytesUp != 0 {
		t.Fatalf("stats in blackhole: %+v", st)
	}

	p.Heal()
	// The starved connection is closed by the heal (its bytes are lost)...
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("healed blackhole conn read: err=%v, want closed", err)
	}
	// ...and a fresh connection relays normally.
	c2 := dial(t, p.Addr())
	if got, err := roundTrip(c2, "back"); err != nil || got != "back" {
		t.Fatalf("post-heal relay: %q err=%v", got, err)
	}
}

// A partition refuses new connections and resets established ones.
func TestNetProxyPartition(t *testing.T) {
	p := newProxy(t, echoBackend(t))
	c := dial(t, p.Addr())
	if got, err := roundTrip(c, "pre"); err != nil || got != "pre" {
		t.Fatalf("pre-partition relay: %q err=%v", got, err)
	}

	p.SetFault(chaos.NetPartition)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if n, err := c.Read(buf); err == nil {
		t.Fatalf("established conn survived the partition (read %d bytes)", n)
	}

	// New connections die without a byte of service.
	c2 := dial(t, p.Addr())
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := c2.Read(buf); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partitioned dial: n=%d err=%v, want refusal", n, err)
	}
	if st := p.Stats(); st.Refused == 0 || st.Reset == 0 {
		t.Fatalf("partition stats: %+v", st)
	}

	p.Heal()
	c3 := dial(t, p.Addr())
	if got, err := roundTrip(c3, "post"); err != nil || got != "post" {
		t.Fatalf("post-heal relay: %q err=%v", got, err)
	}
}

// Mid-body reset: the client receives a truncated prefix and then a hard
// error — never a clean EOF it could mistake for a complete response.
func TestNetProxyResetMidBody(t *testing.T) {
	// A backend that answers each request byte with a 10-byte body — the
	// shape of a real reply. (A body pushed on accept can be relayed and
	// reset before the client's connect has even returned, and then it is
	// the dial that fails.)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				if _, err := c.Read(make([]byte, 1)); err != nil {
					c.Close()
					return
				}
				c.Write([]byte("0123456789"))
				time.Sleep(50 * time.Millisecond)
				c.Close()
			}()
		}
	}()

	p := newProxy(t, ln.Addr().String())
	p.ResetAfter = 4
	p.SetFault(chaos.NetResetMidBody)

	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("?")); err != nil {
		t.Fatalf("request write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	total := 0
	buf := make([]byte, 32)
	var readErr error
	for {
		n, err := c.Read(buf)
		total += n
		if err != nil {
			readErr = err
			break
		}
	}
	if readErr == io.EOF {
		t.Fatal("mid-body reset delivered a clean EOF")
	}
	if total >= 10 {
		t.Fatalf("client got the whole %d-byte body through a mid-body reset", total)
	}
	if st := p.Stats(); st.Reset == 0 {
		t.Fatalf("reset not counted: %+v", st)
	}
}

func TestNetProxySlowClose(t *testing.T) {
	p := newProxy(t, echoBackend(t))
	p.SetFault(chaos.NetSlowClose)
	c := dial(t, p.Addr())
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8)
	n, err := c.Read(buf)
	if n != 0 || err != io.EOF {
		t.Fatalf("slow-close read: n=%d err=%v, want immediate EOF", n, err)
	}
}

func TestNetProxyCloseIdempotent(t *testing.T) {
	p := newProxy(t, echoBackend(t))
	c := dial(t, p.Addr())
	if got, err := roundTrip(c, "x"); err != nil || got != "x" {
		t.Fatalf("relay: %q err=%v", got, err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := net.DialTimeout("tcp", p.Addr(), 200*time.Millisecond); err == nil {
		t.Fatal("closed proxy still accepting")
	}
}
