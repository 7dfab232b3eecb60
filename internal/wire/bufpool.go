package wire

import (
	"io"
	"sync"
	"unsafe"
)

// Body buffers are pooled in size classes so steady-state ingress makes no
// buffer allocations: a typical JSON detect body (~40 KiB at the default
// 3×32×32 frame) and its binary twin (~12 KiB) each land in a small class,
// while the 4 MiB ceiling class exists only for worst-case bodies and is
// touched as rarely as they arrive. Classes are powers of four-ish steps —
// few enough that every class stays warm under mixed traffic, close enough
// that a body never occupies more than ~4× its size.
var bufClasses = [...]int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

var bufPools [len(bufClasses)]sync.Pool

// Buf is a pooled byte buffer. Get one with GetBuf or ReadAll, use Bytes,
// and hand it back with Release exactly once — after Release the contents
// may be overwritten by any other goroutine at any time. A Buf whose bytes
// may still be read elsewhere (decoded pixels a watchdog-abandoned
// execution may still hold, say) must be dropped on the floor instead: the
// garbage collector reclaims it and the pool never learns about it. A
// forwarded request body is never such a Buf: the gateway's shard relay
// writes it on the caller's goroutine and reads no byte of it once the call
// returns, so the gateway releases it after every request.
type Buf struct {
	b     []byte
	n     int
	class int // index into bufPools, -1 for an off-class (unpooled) buffer
}

// Bytes returns the filled portion of the buffer.
func (b *Buf) Bytes() []byte { return b.b[:b.n] }

// Release returns the buffer to its size-class pool. Safe on nil.
func (b *Buf) Release() {
	if b == nil || b.class < 0 {
		return
	}
	c := b.class
	b.n = 0
	b.class = -1 // double-Release becomes a no-op instead of a double-free
	bufPools[c].Put(b)
}

// pixels returns n float32s for decoded pixels and the pooled buffer they
// live in: the smallest body class that holds them, viewed as words (a class
// array is at least 16 KiB, so the heap aligns it for any word). An image
// under a quarter of the smallest class gets a plain slice and no buffer: a
// class would mostly hold nothing, and a hostile body declaring a huge shape
// over a few values buys no more memory than those values.
func pixels(n int) ([]float32, *Buf) {
	if 4*n < bufClasses[0]/4 {
		return make([]float32, n), nil
	}
	b := GetBuf(4 * n)
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b.b))), n), b
}

// GetBuf returns a pooled buffer whose capacity is at least sizeHint (the
// smallest class that fits; hints beyond the largest class fall back to a
// one-off allocation the pool never sees).
func GetBuf(sizeHint int) *Buf {
	for i, c := range bufClasses {
		if sizeHint <= c {
			if v := bufPools[i].Get(); v != nil {
				b := v.(*Buf)
				b.n, b.class = 0, i // re-arm (Release parks buffers with class -1)
				return b
			}
			return &Buf{b: make([]byte, c), class: i}
		}
	}
	return &Buf{b: make([]byte, sizeHint), class: -1}
}

// ReadFull reads exactly n bytes of r into a pooled buffer the caller
// owns, failing as io.ReadFull fails, the partial buffer released.
func ReadFull(r io.Reader, n int) (*Buf, error) {
	buf := GetBuf(n)
	if _, err := io.ReadFull(r, buf.b[:n]); err != nil {
		buf.Release()
		return nil, err
	}
	buf.n = n
	return buf, nil
}

// ReadAll drains r into a pooled buffer, growing through the size classes
// as bytes arrive. sizeHint pre-sizes the first class (an HTTP handler
// passes the request's ContentLength; chunked bodies pass 0 and start
// small). The reader's own limit (http.MaxBytesReader) is the byte bound —
// ReadAll grows until the reader is done or errors. On error the partial
// buffer is released and (nil, err) returned; on success the caller owns
// the Buf and must Release (or deliberately leak) it.
func ReadAll(r io.Reader, sizeHint int) (*Buf, error) {
	if sizeHint < 0 {
		sizeHint = 0
	}
	buf := GetBuf(sizeHint)
	for {
		if buf.n == len(buf.b) {
			// Full: either the body is exactly this long (the next read
			// returns 0, io.EOF) or it continues into the next class. Probe
			// with a one-byte read before paying the copy.
			var probe [1]byte
			m, err := r.Read(probe[:])
			if m == 0 && err == io.EOF {
				return buf, nil
			}
			if m == 0 && err != nil {
				buf.Release()
				return nil, err
			}
			want := len(buf.b) + 1
			if want > bufClasses[len(bufClasses)-1] {
				want = 2 * len(buf.b) // off-class: double, don't creep
			}
			next := GetBuf(want)
			next.n = copy(next.b, buf.b[:buf.n])
			buf.Release()
			buf = next
			if m > 0 {
				buf.b[buf.n] = probe[0]
				buf.n++
			}
			if err == io.EOF {
				return buf, nil
			}
			if err != nil {
				buf.Release()
				return nil, err
			}
			continue
		}
		m, err := r.Read(buf.b[buf.n:])
		buf.n += m
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			buf.Release()
			return nil, err
		}
	}
}
