package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"itask/internal/testutil"
)

func testFrame(t *testing.T) []byte {
	t.Helper()
	data := make([]float32, 3*4*4)
	for i := range data {
		data[i] = float32(i) * 0.25
	}
	return AppendFrame(nil, "patrol", "acme", 250, [3]int{3, 4, 4}, data)
}

func TestFrameRoundTrip(t *testing.T) {
	data := make([]float32, 3*4*4)
	for i := range data {
		data[i] = float32(i) - 7.5
	}
	data[0] = float32(math.NaN())
	data[1] = float32(math.Inf(-1))
	body := AppendFrame(nil, "patrol", "acme", 1234, [3]int{3, 4, 4}, data)
	f, err := ParseFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Task) != "patrol" || string(f.Tenant) != "acme" || f.TimeoutMS != 1234 {
		t.Fatalf("parsed header %q/%q/%d", f.Task, f.Tenant, f.TimeoutMS)
	}
	if f.Shape != [3]int{3, 4, 4} || len(f.Payload)/4 != len(data) {
		t.Fatalf("parsed shape %v (%d elems)", f.Shape, len(f.Payload)/4)
	}
	got := make([]float32, len(f.Payload)/4)
	Float32s(f.Payload, got)
	for i, v := range data {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			t.Fatalf("element %d: %x != %x (NaN/Inf must round-trip bit-exactly)", i, math.Float32bits(got[i]), math.Float32bits(v))
		}
	}
}

func TestFrameEmptyNames(t *testing.T) {
	body := AppendFrame(nil, "", "", 0, [3]int{1, 1, 1}, []float32{42})
	f, err := ParseFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Task) != 0 || len(f.Tenant) != 0 || f.TimeoutMS != 0 {
		t.Fatalf("parsed %+v", f)
	}
}

func TestFramePayloadAligned(t *testing.T) {
	// Name lengths that are not multiples of 4 must be padded so the
	// payload offset stays word-aligned within the body.
	for _, task := range []string{"", "a", "ab", "abc", "abcd", "abcde"} {
		body := AppendFrame(nil, task, "xyz", 0, [3]int{1, 1, 2}, []float32{1, 2})
		f, err := ParseFrame(body)
		if err != nil {
			t.Fatalf("task %q: %v", task, err)
		}
		off := len(body) - len(f.Payload)
		if off%4 != 0 {
			t.Fatalf("task %q: payload offset %d not 4-byte aligned", task, off)
		}
	}
}

func TestParseFrameRejectsMalformedBodies(t *testing.T) {
	valid := testFrame(t)
	mutate := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return fn(b)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short garbage", []byte("xx")},
		{"truncated header", valid[:16]},
		{"truncated payload", valid[:len(valid)-3]},
		{"trailing garbage", append(append([]byte(nil), valid...), 'x')},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 9; return b })},
		{"nonzero flags", mutate(func(b []byte) []byte { b[6] = 1; return b })},
		{"nonzero reserved", mutate(func(b []byte) []byte { b[18] = 1; return b })},
		{"wrong ndim", mutate(func(b []byte) []byte { b[16] = 2; return b })},
		{"zero dim", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[20:], 0); return b })},
		{"huge dims", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[24:], 1<<31)
			binary.LittleEndian.PutUint32(b[28:], 1<<31)
			return b
		})},
		{"oversized task len", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[12:], 2000); return b })},
		{"name overruns body", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[12:], 900); return b })},
		{"nonzero padding", mutate(func(b []byte) []byte {
			// task "patrol" (6) + tenant "acme" (4) = 10 → 2 pad bytes at 42.
			b[headerLen+10] = 0xff
			return b
		})},
	}
	for _, tc := range cases {
		if _, err := ParseFrame(tc.body); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// A non-frame body yields ErrNotFrame specifically, so callers can fall
	// back to the JSON parser without claiming frame corruption.
	if _, err := ParseFrame([]byte(`{"task":"patrol"}`)); !errors.Is(err, ErrNotFrame) {
		t.Errorf("JSON body: err = %v, want ErrNotFrame", err)
	}
	// A body that *starts* like a frame but is cut off is a frame error,
	// not a fall-back case.
	if _, err := ParseFrame([]byte("iTSK")); errors.Is(err, ErrNotFrame) || err == nil {
		t.Errorf("truncated magic-only body: err = %v, want a frame error", err)
	}
}

// FuzzParseFrame: whatever the bytes — truncated, oversized, garbage
// headers — the parser must never panic, and an accepted frame must be
// internally consistent.
func FuzzParseFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("iTSK"))
	f.Add(testFrameSeed())
	f.Add(testFrameSeed()[:17])
	f.Add(append(testFrameSeed(), 0))
	big := testFrameSeed()
	binary.LittleEndian.PutUint32(big[24:], 0xffffffff)
	f.Add(big)
	f.Add([]byte(`{"task":"patrol","scene":{"domain":"driving","seed":7}}`))
	f.Add(bytes.Repeat([]byte{0xfe}, 64))
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := ParseFrame(body)
		if err != nil {
			return
		}
		n := 1
		for _, d := range fr.Shape {
			if d <= 0 {
				t.Fatalf("accepted non-positive dim: %v", fr.Shape)
			}
			n *= d
		}
		if n > maxFrameElems {
			t.Fatalf("accepted oversized shape %v", fr.Shape)
		}
		if len(fr.Payload) != 4*n {
			t.Fatalf("payload %d bytes for shape %v", len(fr.Payload), fr.Shape)
		}
		if len(fr.Task) > maxNameLen || len(fr.Tenant) > maxNameLen {
			t.Fatal("accepted oversized name")
		}
		dst := make([]float32, n)
		Float32s(fr.Payload, dst) // must not panic on any accepted frame
	})
}

func testFrameSeed() []byte {
	return AppendFrame(nil, "patrol", "acme", 250, [3]int{3, 2, 2}, make([]float32, 12))
}

// The steady-state binary ingest path — pooled body read, frame decode, and
// the payload decoded into pooled pixels — must make zero allocations per
// request once the body and the pixels go back to their pool. (Under -race
// sync.Pool drops a quarter of its puts: two buffers of two objects each
// come to one reallocated object per op on average.)
func TestBinaryIngestZeroAllocs(t *testing.T) {
	data := make([]float32, 3*32*32)
	for i := range data {
		data[i] = float32(i)
	}
	body := AppendFrame(nil, "patrol", "acme", 0, [3]int{3, 32, 32}, data)
	r := bytes.NewReader(body)
	// Warm the size-class pool so the measured runs reuse buffers.
	for i := 0; i < 4; i++ {
		r.Reset(body)
		buf, err := ReadAll(r, len(body))
		if err != nil {
			t.Fatal(err)
		}
		buf.Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(body)
		buf, err := ReadAll(r, len(body))
		if err != nil {
			t.Fatal(err)
		}
		fr, err := ParseFrame(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		px, pb := pixels(len(fr.Payload) / 4)
		Float32s(fr.Payload, px)
		buf.Release()
		pb.Release()
	})
	want := 0.0
	if testutil.Race {
		want = 1
	}
	if allocs > want {
		t.Fatalf("pooled read + frame decode + pixels allocates %.1f/op, want %.0f", allocs, want)
	}
}

// Float32s is the loop's bits exactly, whatever the bits — NaN (signalling
// too), ±Inf, −0, subnormals — at every length up to a few vectors and at
// every payload misalignment (the frame keeps the payload aligned to the
// body start, not to the heap). Run under -race it is also checkptr's check
// of the byte view.
func TestFloat32sMatchesLoop(t *testing.T) {
	special := []uint32{
		0x7f800001, 0xff800001, 0x7fbfffff, // signalling NaNs
		0x7fc00000, 0xffc00000, 0x7fffffff, // quiet NaNs
		0x7f800000, 0xff800000, // ±Inf
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x3f800000, 0xc2f6e979, 0x7f7fffff, // normals
	}
	r := rand.New(rand.NewSource(29))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 4; off++ {
			buf := make([]byte, off+4*n)
			payload := buf[off:]
			for i := 0; i < n; i++ {
				bits := r.Uint32()
				if r.Intn(2) == 0 {
					bits = special[r.Intn(len(special))]
				}
				binary.LittleEndian.PutUint32(payload[4*i:], bits)
			}
			got, want := make([]float32, n), make([]float32, n)
			Float32s(payload, got)
			float32sLoop(payload, want)
			for i := range want {
				if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
					t.Fatalf("n=%d off=%d: element %d is %#08x, the loop gives %#08x", n, off, i, g, w)
				}
			}
		}
	}
}
