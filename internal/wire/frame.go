// Package wire owns the ingress byte path shared by cmd/itask-serve and
// cmd/itask-gateway: the versioned application/x-itask-tensor binary frame
// format, size-classed pooled body buffers for reading request/response
// bodies without steady-state allocation, the single-pass JSON detect-body
// decoder both doors share, and pooled JSON response encoding.
//
// The binary format exists because a dense frame serialized as JSON floats
// costs a full decimal parse per element at every door that needs to look at
// it — the gateway once (to derive the routing digest) and the shard again
// (to materialize the tensor). A frame on the wire format is decoded by
// slicing: the gateway reads the fixed header and content-hashes the raw
// payload bytes directly (no tensor, no float parsing), and the shard's only
// work on the pixels is one copy: a little-endian host's float32s are the
// payload's bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// ContentType is the media type of a binary tensor frame. Bodies posted to
// /v1/detect with this Content-Type are parsed by ParseFrame; anything else
// takes the JSON path.
const ContentType = "application/x-itask-tensor"

// Frame wire layout, version 1, every multi-byte field little-endian:
//
//	offset size field
//	0      4    magic "iTSK"
//	4      2    version (1)
//	6      2    flags (must be 0; reserved for future negotiation)
//	8      4    timeout_ms (0 = server default)
//	12     2    task length in bytes
//	14     2    tenant length in bytes
//	16     2    ndim (must be 3 in v1)
//	18     2    reserved (must be 0)
//	20     12   dims, 3 × uint32 (channels, height, width)
//	32     ...  task bytes, then tenant bytes, then zero padding to the
//	            next 4-byte boundary, then the payload: dims product ×
//	            float32, raw IEEE-754 bits, little-endian
//
// The total body length must equal the header-implied length exactly —
// trailing bytes are rejected, the same line the JSON parser holds. Padding
// keeps the payload 4-byte aligned relative to the body start so a decoder
// may view it as words without unaligned loads.
const (
	frameMagic   = "iTSK"
	FrameVersion = 1
	headerLen    = 32

	// maxNameLen bounds the task and tenant fields structurally. The
	// serving layers apply their own (tighter) rules; this bound only keeps
	// a hostile header from pointing the parser at megabytes of "name".
	maxNameLen = 1024

	// maxFrameElems bounds the payload element count (a 4 MiB body bound
	// divided by 4-byte elements). ParseFrame enforces it before trusting
	// the dims product, so hostile dims cannot size anything real.
	maxFrameElems = 1 << 20
)

// Frame is a parsed binary detect request. Task, Tenant, and Payload alias
// the body buffer passed to ParseFrame — they are valid only while that
// buffer is; copy (or convert to string) anything that outlives it.
type Frame struct {
	Task      []byte
	Tenant    []byte
	TimeoutMS uint32
	// Shape is the declared (channels, height, width) extent. ParseFrame
	// guarantees each dim is positive and the product matches Payload.
	Shape [3]int
	// Payload is the raw little-endian float32 data, 4 bytes per element.
	Payload []byte
}

// ErrNotFrame marks a body that does not begin with the frame magic: the
// caller may fall back to another decode (or reject) without reporting a
// corrupt frame.
var ErrNotFrame = errors.New("wire: not a tensor frame")

// ParseFrame decodes a binary detect body by slicing. It never allocates
// and never panics, whatever the bytes (it is fuzzed): every return is
// either a structurally valid frame whose payload length matches its shape
// exactly, or an error fit for HTTP 400.
func ParseFrame(body []byte) (Frame, error) {
	var f Frame
	if len(body) < headerLen {
		if len(body) < 4 || string(body[:4]) != frameMagic {
			return f, ErrNotFrame
		}
		return f, fmt.Errorf("wire: truncated frame header: %d bytes, need %d", len(body), headerLen)
	}
	if string(body[:4]) != frameMagic {
		return f, ErrNotFrame
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != FrameVersion {
		return f, fmt.Errorf("wire: unsupported frame version %d (want %d)", v, FrameVersion)
	}
	if flags := binary.LittleEndian.Uint16(body[6:]); flags != 0 {
		return f, fmt.Errorf("wire: unknown frame flags %#x", flags)
	}
	f.TimeoutMS = binary.LittleEndian.Uint32(body[8:])
	taskLen := int(binary.LittleEndian.Uint16(body[12:]))
	tenantLen := int(binary.LittleEndian.Uint16(body[14:]))
	if taskLen > maxNameLen || tenantLen > maxNameLen {
		return f, fmt.Errorf("wire: name field exceeds %d bytes", maxNameLen)
	}
	if ndim := binary.LittleEndian.Uint16(body[16:]); ndim != 3 {
		return f, fmt.Errorf("wire: frame ndim %d (v1 carries exactly 3 dims)", ndim)
	}
	if rsv := binary.LittleEndian.Uint16(body[18:]); rsv != 0 {
		return f, fmt.Errorf("wire: reserved header bytes %#x must be zero", rsv)
	}
	elems := uint64(1)
	for i := range f.Shape {
		d := binary.LittleEndian.Uint32(body[20+4*i:])
		if d == 0 {
			return f, fmt.Errorf("wire: zero dim %d in frame shape", i)
		}
		f.Shape[i] = int(d)
		elems *= uint64(d)
		if elems > maxFrameElems {
			return f, fmt.Errorf("wire: frame shape %v exceeds %d elements", f.Shape, maxFrameElems)
		}
	}
	nameEnd := headerLen + taskLen + tenantLen
	payloadOff := pad4(nameEnd)
	want := payloadOff + int(elems)*4
	if len(body) < want {
		return f, fmt.Errorf("wire: truncated frame: %d bytes, header implies %d", len(body), want)
	}
	if len(body) > want {
		return f, fmt.Errorf("wire: %d trailing bytes after frame payload", len(body)-want)
	}
	for _, b := range body[nameEnd:payloadOff] {
		if b != 0 {
			return f, errors.New("wire: nonzero padding between names and payload")
		}
	}
	f.Task = body[headerLen : headerLen+taskLen]
	f.Tenant = body[headerLen+taskLen : nameEnd]
	f.Payload = body[payloadOff:want]
	return f, nil
}

// AppendFrame encodes one binary detect request onto dst and returns the
// extended slice — the client-side mirror of ParseFrame, used by tests,
// benchmarks, and the mkframe tooling. len(data) must equal the shape
// product; task and tenant must fit the structural name bound.
func AppendFrame(dst []byte, task, tenant string, timeoutMS uint32, shape [3]int, data []float32) []byte {
	n := 1
	for _, d := range shape {
		if d <= 0 || uint64(d) > math.MaxUint32 {
			panic(fmt.Sprintf("wire: AppendFrame shape %v", shape))
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("wire: AppendFrame %d elements for shape %v (need %d)", len(data), shape, n))
	}
	if len(task) > maxNameLen || len(tenant) > maxNameLen {
		panic("wire: AppendFrame name exceeds structural bound")
	}
	var hdr [headerLen]byte
	copy(hdr[:4], frameMagic)
	binary.LittleEndian.PutUint16(hdr[4:], FrameVersion)
	binary.LittleEndian.PutUint32(hdr[8:], timeoutMS)
	binary.LittleEndian.PutUint16(hdr[12:], uint16(len(task)))
	binary.LittleEndian.PutUint16(hdr[14:], uint16(len(tenant)))
	binary.LittleEndian.PutUint16(hdr[16:], 3)
	for i, d := range shape {
		binary.LittleEndian.PutUint32(hdr[20+4*i:], uint32(d))
	}
	dst = append(dst, hdr[:]...)
	dst = append(dst, task...)
	dst = append(dst, tenant...)
	for pad := pad4(len(task)+len(tenant)) - len(task) - len(tenant); pad > 0; pad-- {
		dst = append(dst, 0)
	}
	var w [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
		dst = append(dst, w[:]...)
	}
	return dst
}

// Float32s decodes a frame payload into dst — no text parsing, no
// allocation. On a little-endian host the payload's bytes already are the
// float32s, so the decode is one copy into a byte view of dst, every bit
// kept (NaN payloads included); a big-endian host takes float32sLoop.
// len(dst) must equal len(payload)/4 (ParseFrame guarantees the payload
// length is a multiple of 4 matching the declared shape).
func Float32s(payload []byte, dst []float32) {
	if len(payload) != 4*len(dst) {
		panic(fmt.Sprintf("wire: Float32s %d payload bytes for %d elements", len(payload), len(dst)))
	}
	if !littleEndian {
		float32sLoop(payload, dst)
		return
	}
	// The view is of dst, whose words are aligned, and never of the
	// payload, which need not be.
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*len(dst)), payload)
}

// float32sLoop is Float32s one little-endian 4-byte load per element: the
// body on a big-endian host, and the reference the copy is tested against.
func float32sLoop(payload []byte, dst []float32) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}

// littleEndian reports whether the host stores a word's low byte first.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// pad4 rounds n up to the next multiple of 4.
func pad4(n int) int { return (n + 3) &^ 3 }
