package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// refDecode is the decoder DecodeDetect replaced and the reference it is
// held to: encoding/json into a DetectBody, plus the one-value-per-body
// rule.
func refDecode(body []byte) (*DetectBody, error) {
	var dr DetectBody
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&dr); err != nil {
		return nil, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("trailing data after JSON body")
	}
	return &dr, nil
}

// diffBodies compares two decoded bodies field by field — pixels by bit
// pattern, nil against empty told apart — and describes the first
// difference.
func diffBodies(got, want *DetectBody) string {
	if got.Task != want.Task || got.Tenant != want.Tenant || got.TimeoutMS != want.TimeoutMS {
		return fmt.Sprintf("task/tenant/timeout %q/%q/%d, want %q/%q/%d",
			got.Task, got.Tenant, got.TimeoutMS, want.Task, want.Tenant, want.TimeoutMS)
	}
	if (got.Scene == nil) != (want.Scene == nil) || got.Scene != nil && *got.Scene != *want.Scene {
		return fmt.Sprintf("scene %+v, want %+v", got.Scene, want.Scene)
	}
	if (got.Image == nil) != (want.Image == nil) {
		return fmt.Sprintf("image %v, want %v", got.Image, want.Image)
	}
	if got.Image == nil {
		return ""
	}
	g, w := got.Image, want.Image
	if (g.Shape == nil) != (w.Shape == nil) || fmt.Sprint(g.Shape) != fmt.Sprint(w.Shape) {
		return fmt.Sprintf("shape %#v, want %#v", g.Shape, w.Shape)
	}
	if (g.Data == nil) != (w.Data == nil) || len(g.Data) != len(w.Data) {
		return fmt.Sprintf("data nil=%v len %d, want nil=%v len %d", g.Data == nil, len(g.Data), w.Data == nil, len(w.Data))
	}
	for i := range g.Data {
		if math.Float32bits(g.Data[i]) != math.Float32bits(w.Data[i]) {
			return fmt.Sprintf("pixel %d is %x, want %x", i, math.Float32bits(g.Data[i]), math.Float32bits(w.Data[i]))
		}
	}
	return ""
}

// duplicateMember reports, by encoding/json's own tokenizer, whether obj
// has two members binding to one of fields, or a child object does.
func duplicateMember(obj []byte, fields []string, children map[string][]string) bool {
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var val json.RawMessage
		if dec.Decode(&val) != nil {
			return false
		}
		for _, f := range fields {
			if !strings.EqualFold(tok.(string), f) {
				continue
			}
			if seen[f] || duplicateMember(val, children[f], nil) {
				return true
			}
			seen[f] = true
		}
	}
	return false
}

var surrogateEscape = regexp.MustCompile(`\\u[dD][89a-fA-F]`)

// routable is the gateway's rule for digesting an image body: three shape
// entries, each within the frame's bound (so their product cannot wrap
// around to match — [1, 2^40, 2^40] multiplies to 0), and data to match.
func routable(b *DetectBody) bool {
	img := b.Image
	if img == nil || len(img.Shape) != 3 || len(img.Data) > maxFrameElems {
		return false
	}
	for _, v := range img.Shape {
		if v < 1 || v > maxFrameElems {
			return false
		}
	}
	return len(img.Data) == img.Shape[0]*img.Shape[1]*img.Shape[2]
}

// checkAgainstReference is the differential property: whatever DecodeDetect
// accepts, the reference accepts with an equal value; whatever only the
// reference accepts is one of the named tightenings, and the body shows it.
func checkAgainstReference(t *testing.T, body []byte, imageSize int) {
	t.Helper()
	got, err := DecodeDetect(body, imageSize)
	want, refErr := refDecode(body)
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("size %d: accepted %q, reference says %v", imageSize, body, refErr)
	case err == nil:
		if d := diffBodies(got, want); d != "" {
			t.Fatalf("size %d: %q: %s", imageSize, body, d)
		}
	case refErr != nil:
	case errors.Is(err, errDuplicateMember):
		if !duplicateMember(body, bodyFields, map[string][]string{"image": imageFields, "scene": sceneFields}) {
			t.Fatalf("%q refused as %v, but no field is bound twice", body, err)
		}
	case errors.Is(err, errInvalidUTF8):
		if utf8.Valid(body) {
			t.Fatalf("%q refused as %v, but is valid UTF-8", body, err)
		}
	case errors.Is(err, errLoneSurrogate):
		if !surrogateEscape.Match(body) {
			t.Fatalf("%q refused as %v, but has no surrogate escape", body, err)
		}
	case errors.Is(err, errTooLarge):
		if imageSize > 0 && want.Check(imageSize) == nil {
			t.Fatalf("size %d: %q refused as %v, but passes Check", imageSize, body, err)
		}
		if imageSize == 0 && routable(want) {
			t.Fatalf("%q refused as %v, but the gateway would have digested it", body, err)
		}
	default:
		t.Fatalf("size %d: %q refused (%v) where the reference accepts, and not by a named tightening", imageSize, body, err)
	}
}

// marshalImage is a client's body: json.Marshal of a map, so "data" comes
// before "shape" and "image" before "task".
func marshalImage(t testing.TB, task string, size int, seed int64) ([]byte, []float32) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	data := make([]float32, 3*size*size)
	for i := range data {
		data[i] = r.Float32()
	}
	body, err := json.Marshal(map[string]any{
		"task":  task,
		"image": map[string]any{"shape": []int{3, size, size}, "data": data},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, data
}

// decodeCorpus is bodies both decoders must agree on (or differ on only by a
// named tightening): the seeds of FuzzDecodeDetect and the rows of
// TestDecodeDetectMatchesReference.
func decodeCorpus(t testing.TB) [][]byte {
	marshalled, _ := marshalImage(t, "patrol", 8, 1)
	deep := strings.Repeat("[", 40) + strings.Repeat("]", 40)
	corpus := []string{
		// FuzzParseDetectRequest's seeds.
		`{"task":"patrol","scene":{"domain":"driving","seed":7}}`,
		`{"task":"patrol","image":{"shape":[3,8,8],"data":[0]}}`,
		`{"task":"","image":{"shape":[],"data":[]}}`,
		`{"task":"p","image":{"shape":[3,0,0],"data":[]}}`,
		`{"task":"p","image":{"shape":[3,1099511627776,1099511627776],"data":[1]}}`,
		`{"task":"p","timeout_ms":-9223372036854775808}`,
		`{"task":"p","tenant":"acme","scene":{"domain":"driving"}}`,
		`{"task":"p","tenant":"` + strings.Repeat("t", 65) + `","scene":{"domain":"driving"}}`,
		`{"task":"p","tenant":"a\u0001b","scene":{"domain":"driving"}}`,
		`{"task":"p","scene":{"domain":"driving"}}{"task":"q"}`,
		`{"task":"p","scene":{"domain":"driving"}} ` + "\n",
		`{`, `null`, `[1,2,3]`, "\x00\xff\xfe",
		// Real client bodies.
		string(marshalled),
		`{"image":{"shape":[3,1,1],"data":[0.25,-0,1e-3]},"task":"t","timeout_ms":250,"tenant":"acme"}`,
		` { "task" : "t" , "image" : { "data" : [ 1 , 2.5 , -3e2 ] , "shape" : [ 3 , 1 , 1 ] } } `,
		// Name binding.
		`{"TASK":"a","Tenant":"b","Timeout_MS":3,"SCENE":{"DOMAIN":"d","Seed":9}}`,
		`{"ta\u017f\u212a":"long s, kelvin"}`, "{\"ta\u017f\u212a\":\"raw\"}", `{"t\u0061sk":"escaped"}`,
		`{"task ":"no","":1,"tasks":2,"timeout-ms":3}`,
		// Strings.
		`{"task":"q\"b\\s\/\b\f\n\r\t\u00e9\u20ac","tenant":"é€😀"}`,
		`{"task":"\ud83d\ude00 pair","tenant":"😀"}`,
		`{"task":"\ud83d lone high"}`, `{"task":"\ude00 lone low"}`, `{"task":"\ud83dA"}`, `{"task":"\ud83d\u0041"}`, `{"task":"\ud83d\ud83d\ude00"}`,
		`{"x":"\ud800"}`, `{"\udfff":1}`,
		"{\"task\":\"bad \xff byte\"}", "{\"x\":\"\xed\xa0\x80\"}", "{\"\xc0\xaf\":1}",
		`{"task":"a\u0000b"}`, "{\"task\":\"raw\ttab\"}", `{"task":"\x"}`, `{"task":"\u12g4"}`, `{"task":"\u12`,
		// Numbers.
		`{"image":{"data":[0,-0,0.0,-0.0,0e0,1E+2,1e-2,1.5e+0,123456789012345678901234567890,1e-60,3.4028235e38]}}`,
		`{"image":{"data":[1e39]}}`, `{"image":{"data":[-1e39]}}`, `{"image":{"data":[1e999999999999]}}`, `{"image":{"data":[1e-999999999999]}}`,
		`{"image":{"data":[01]}}`, `{"image":{"data":[1.]}}`, `{"image":{"data":[.5]}}`, `{"image":{"data":[+1]}}`, `{"image":{"data":[-]}}`,
		`{"image":{"data":[1e]}}`, `{"image":{"data":[1e+]}}`, `{"image":{"data":[0x10]}}`, `{"image":{"data":[NaN]}}`, `{"image":{"data":[Infinity]}}`,
		`{"image":{"data":[1,]}}`, `{"image":{"data":[,1]}}`, `{"image":{"data":[1 2]}}`, `{"image":{"data":[1`,
		`{"timeout_ms":1.0}`, `{"timeout_ms":1e2}`, `{"timeout_ms":-0}`, `{"timeout_ms":9223372036854775808}`, `{"timeout_ms":"5"}`,
		`{"scene":{"seed":18446744073709551615}}`, `{"scene":{"seed":18446744073709551616}}`, `{"scene":{"seed":28446744073709551616}}`,
		`{"scene":{"seed":-0}}`, `{"scene":{"seed":-1}}`, `{"scene":{"seed":1.5}}`,
		`{"image":{"shape":[3.0,8,8]}}`, `{"image":{"shape":[3,8,8,1]}}`, `{"image":{"shape":[3,-8,-8]}}`, `{"image":{"shape":[3,8,99999999999999999999]}}`,
		`{"imAge":{"shApe":[1,1099511627776,1099511627776]}}`, // the product wraps to 0 and matches the missing data
		`{"image":{"shape":[2,2,2],"data":[1,2,3,4,5,6,7,8,9]}}`, `{"image":{"data":[1,2,3,4,5,6,7,8,9],"shape":[2,2,2]}}`,
		// null and wrong types.
		`{"task":null,"tenant":null,"image":null,"scene":null,"timeout_ms":null}`,
		`{"image":{"shape":null,"data":null},"scene":{"domain":null,"seed":null}}`,
		`{"image":{"shape":[null,8,8],"data":[null,1,null]}}`, `{"image":{}}`, `{"scene":{}}`, `{}`, ` null `, `nullx`, `null null`,
		`{"task":5}`, `{"task":["a"]}`, `{"image":[]}`, `{"image":"x"}`, `{"scene":7}`, `{"image":{"data":"AAAA"}}`, `{"image":{"data":{}}}`,
		`{"image":{"data":["1"]}}`, `{"image":{"data":[true]}}`, `{"image":{"data":[[1]]}}`, `{"image":{"shape":["3"]}}`,
		`true`, `"task"`, `7`, ``, `   `,
		// Unknown members of any shape, and the nesting bound.
		`{"x":{"a":[1,{"b":null,"c":[true,false,"s\n",-1.5e-3]}],"task":"inner"},"task":"outer","y":` + deep + `}`,
		`{"image":{"extra":{"data":[1,2]},"data":[3]},"scene":{"seed":1,"note":[]}}`,
		`{"x":1e999,"y":-0.0e-0,"z":12345678901234567890123}`,
		`{"x":` + strings.Repeat("[", maxJSONDepth-1) + strings.Repeat("]", maxJSONDepth-1) + `}`,
		`{"x":` + strings.Repeat("[", maxJSONDepth) + strings.Repeat("]", maxJSONDepth) + `}`,
		`{"x":` + strings.Repeat(`{"k":`, maxJSONDepth-1) + `1` + strings.Repeat("}", maxJSONDepth-1) + `}`,
		`{"x":` + strings.Repeat(`{"k":`, maxJSONDepth) + `1` + strings.Repeat("}", maxJSONDepth) + `}`,
		`{"x":tru}`, `{"x":nul}`, `{"x":falsey}`, `{"x":[1,2}`, `{"x":{"a"}}`, `{"x":{"a":}}`, `{"x":{1:2}}`, `{"x"}`, `{"x":1,}`, `{,}`, `{"x":1 "y":2}`,
		// Duplicates.
		`{"task":"a","task":"b"}`, `{"task":"a","TASK":"b"}`, `{"task":"a","task":null}`, `{"x":1,"x":2,"task":"t"}`,
		`{"image":{"data":[1],"data":[2]}}`, `{"image":{"shape":[1],"Shape":[2]}}`, `{"scene":{"seed":1,"seed":2}}`,
		`{"image":{"data":[1]},"image":{"data":[2]}}`, `{"scene":null,"scene":{"domain":"d"}}`, `{"x":{"task":1,"task":2}}`,
		// Trailing data.
		`{"task":"t"}garbage`, `{"task":"t"}]`, `{"task":"t"} {}`, `{"task":"t"}` + "\x00",
	}
	out := make([][]byte, len(corpus))
	for i, s := range corpus {
		out[i] = []byte(s)
	}
	return out
}

func TestDecodeDetectMatchesReference(t *testing.T) {
	for _, body := range decodeCorpus(t) {
		checkAgainstReference(t, body, 8)
		checkAgainstReference(t, body, 1)
		checkAgainstReference(t, body, 0)
	}

	// And the value itself, once, spelled out rather than compared.
	body, data := marshalImage(t, "patrol", 8, 2)
	dr, err := DecodeDetect(body, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Task != "patrol" || dr.Scene != nil || fmt.Sprint(dr.Image.Shape) != "[3 8 8]" || len(dr.Image.Data) != len(data) {
		t.Fatalf("decoded %+v, image %+v", dr, dr.Image)
	}
	for i, v := range data {
		if math.Float32bits(dr.Image.Data[i]) != math.Float32bits(v) {
			t.Fatalf("pixel %d: %v, sent %v", i, dr.Image.Data[i], v)
		}
	}
	if cap(dr.Image.Data) != len(data) {
		t.Errorf("pixels sized to %d for %d values: the slice was regrown or over-allocated", cap(dr.Image.Data), len(data))
	}
}

// A null pixel reads as 0, as encoding/json leaves a null element at its
// zero value, wherever it stands in the array.
func TestDecodeDetectNullPixelIsZero(t *testing.T) {
	checkAgainstReference(t, []byte(`{"image":{"shape":[1,1,4],"data":[null,1.5, null ,null]}}`), 8)
}

// Each way DecodeDetect is stricter than encoding/json, by name: the
// reference accepts every one of these bodies.
func TestDecodeDetectTightenings(t *testing.T) {
	cases := []struct {
		name string
		body string
		size int
		err  error
		msg  string
	}{
		{"duplicate member", `{"task":"a","scene":{"domain":"driving"},"task":"b"}`, 8, errDuplicateMember, `bad JSON: duplicate member "task"`},
		{"duplicate member, case-folded", `{"image":{"data":[1],"DATA":[2]}}`, 8, errDuplicateMember, `bad JSON: duplicate member "data"`},
		{"invalid UTF-8", "{\"task\":\"pa\xfftrol\"}", 8, errInvalidUTF8, "bad JSON: invalid UTF-8 in string"},
		{"invalid UTF-8 in an unknown member", "{\"task\":\"t\",\"note\":\"\xc3\"}", 8, errInvalidUTF8, "bad JSON: invalid UTF-8 in string"},
		{"lone high surrogate", `{"task":"\ud83d"}`, 8, errLoneSurrogate, "bad JSON: unpaired UTF-16 surrogate escape in string"},
		{"lone low surrogate", `{"tenant":"\ude00x"}`, 8, errLoneSurrogate, "bad JSON: unpaired UTF-16 surrogate escape in string"},
		{"one value too many", `{"task":"t","image":{"data":[` + strings.Repeat("0,", 192) + `0]}}`, 8, errTooLarge, "image exceeds the size this server accepts: data has more than 192 values"},
		{"more values than the shape", `{"image":{"shape":[1,1,2],"data":[1,2,3]}}`, 0, errTooLarge, "image exceeds the size this server accepts: data has more than 2 values"},
		{"fourth shape entry", `{"image":{"shape":[3,8,8,1]}}`, 8, errTooLarge, "image exceeds the size this server accepts: shape has more than 3 entries"},
		{"shape entry out of range", `{"image":{"shape":[3,1073741824,1073741824],"data":[1]}}`, 8, errTooLarge, "image exceeds the size this server accepts: shape entry 1073741824 outside [1, 192]"},
		{"zero shape entry", `{"image":{"shape":[3,0,0]}}`, 0, errTooLarge, "image exceeds the size this server accepts: shape entry 0 outside [1, 1048576]"},
		{"shape product", `{"image":{"shape":[8,8,8]}}`, 8, errTooLarge, "image exceeds the size this server accepts: shape [8 8 8] is more than 192 values"},
	}
	for _, tc := range cases {
		if _, err := refDecode([]byte(tc.body)); err != nil {
			t.Errorf("%s: the reference refuses it too (%v): not a tightening", tc.name, err)
		}
		_, err := DecodeDetect([]byte(tc.body), tc.size)
		if !errors.Is(err, tc.err) || err.Error() != tc.msg {
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.msg)
		}
	}
}

// A body must cost what the caller's image costs, and never more than the
// body itself: the decoder stops at the first value past the bound, whatever
// follows, and a declared shape buys no memory the bytes behind it could not
// fill. An image's pixels come from the smallest pooled class that holds
// them, which is all a pool miss can cost.
func TestDecodeDetectHostileBodyIsBounded(t *testing.T) {
	const size = 32
	allPixels := []byte(`{"task":"t","image":{"data":[` + strings.Repeat("0,", MaxBodyBytes/2-32) + `0]}}`)
	if _, err := DecodeDetect(allPixels, size); !errors.Is(err, errTooLarge) {
		t.Fatalf("4 MiB of pixels: %v", err)
	}
	// The same body cut off right after the value too many fails the same
	// way: nothing past that point was read.
	cut := allPixels[:len(`{"task":"t","image":{"data":[`)+2*(3*size*size+1)]
	if _, err := DecodeDetect(cut, size); !errors.Is(err, errTooLarge) {
		t.Fatalf("truncated after the first value too many: %v", err)
	}

	for _, tc := range []struct {
		name     string
		body     []byte
		size     int
		maxBytes uint64
	}{
		{"4 MiB of pixels at the shard", allPixels, size, uint64(bufClasses[0])}, // holds 4·3·size·size
		// The gateway has no image size, only the frame's 2^20-value bound: a
		// 55-byte body declaring that many values must not be handed 4 MiB.
		{"big shape, one pixel, at the gateway", []byte(`{"task":"x","image":{"shape":[1,1,1048576],"data":[0]}}`), 0, 64},
		{"big shape, one pixel, at the shard", []byte(`{"task":"x","image":{"shape":[3,32,32],"data":[0]}}`), size, 64},
	} {
		if n := testing.AllocsPerRun(10, func() { _, _ = DecodeDetect(tc.body, tc.size) }); n > 8 {
			t.Errorf("%s: %.0f allocations, want a constant <= 8", tc.name, n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			_, _ = DecodeDetect(tc.body, tc.size)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > tc.maxBytes+1024 {
			t.Errorf("%s: allocates %d bytes, want at most %d and change", tc.name, per, tc.maxBytes)
		}
	}
}

// The detect handler releases its pooled body on return while an abandoned
// execution may still be reading the request, so nothing DecodeDetect
// returns may alias the buffer it read.
func TestDecodeDetectOwnsWhatItReturns(t *testing.T) {
	body := []byte(`{"task":"patrol","tenant":"acme","timeout_ms":40,` +
		`"image":{"shape":[3,1,1],"data":[0.5,0.25,-1]},"scene":{"domain":"driving","seed":7}}`)
	buf, err := ReadAll(bytes.NewReader(body), len(body))
	if err != nil {
		t.Fatal(err)
	}
	dr, err := DecodeDetect(buf.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := buf.Bytes()[:cap(buf.Bytes())]
	buf.Release()
	for i := range mem {
		mem[i] = 0xA5
	}
	want, err := refDecode(body)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffBodies(dr, want); d != "" {
		t.Fatalf("decoded body changed when its buffer was recycled: %s", d)
	}
}

// parseFloat32 runs the decoder's number path on one token.
func parseFloat32(tok string) (float32, error) {
	d := decoder{b: []byte(tok)}
	v, err := d.float32()
	if err == nil && d.i != len(tok) {
		err = fmt.Errorf("stopped at %d of %q", d.i, tok)
	}
	return v, err
}

func checkFloat(t *testing.T, tok string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(tok, 32)
	got, err := parseFloat32(tok)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, strconv says %v", tok, err, wantErr)
	}
	if err == nil && math.Float32bits(got) != math.Float32bits(float32(want)) {
		t.Fatalf("%s: %x (%v), strconv says %x (%v)", tok, math.Float32bits(got), got, math.Float32bits(float32(want)), float32(want))
	}
}

// The benchmark's oracle checks a float student's answers to the last
// digit, so one mis-rounded pixel is a failed request: every number must be
// the float32 strconv.ParseFloat(tok, 32) gives, or refused where it refuses.
func TestFloatConformance(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.0", "0e0", "0e999999999999", "0.000000000000000000000000000000000000000000000000",
		"1", "-1", "0.1", "0.5", "1e22", "1e23", "1e-22", "1e-23", "123456789012345e22", "1234567890123456e22", "123456789012345e-22",
		"1e39", "-1e39", "3.4028235e38", "3.4028236e38", "3.40282356e38", "3.4028235677973366e38", "3.4028235677973367e38", "340282356779733661637539395458142568448",
		"1e-60", "-1e-60", "1e-45", "7e-46", "7.0064923216240853e-46", "7.0064923216240854e-46", "1.17549435e-38", "1.1754942e-38", "1.4e-45",
		"1e999999999999", "-1e999999999999", "1e-999999999999", "1e18446744073709551616", "1e-18446744073709551616",
		"12345678901234567890", "123456789012345678901234567890e-20", "0.000000000000000000000000000012345678901234567890",
		"9007199254740993", "9007199254740992.5", "1.00000005960464477539062500001", "1.000000059604644775390625", "1.00000005960464477539062499999",
		"16777217", "16777217.0000000001", "16777216.9999999999", "33554434", "33554438", "1.0000001e0", "0.99999997",
	} {
		checkFloat(t, tok)
	}

	// Every float32 bit pattern class — normals across all binades,
	// subnormals, zeros, the top binade — in the forms a client may print.
	r := rand.New(rand.NewSource(15))
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	var buf []byte
	for i := 0; i < n; i++ {
		bits := r.Uint32()
		switch i % 8 {
		case 0:
			bits &^= 0x7f800000 // subnormal or zero
		case 1:
			bits = bits&^0x7f800000 | 0x7f000000 // top binade, up to MaxFloat32
		}
		v := float64(math.Float32frombits(bits))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, f := range []struct {
			fmt  byte
			prec int
			bits int
		}{{'g', -1, 32}, {'g', 9, 64}, {'g', 17, 64}, {'e', 6, 64}} {
			buf = strconv.AppendFloat(buf[:0], v, f.fmt, f.prec, f.bits)
			checkFloat(t, string(buf))
		}
	}

	// Double rounding. The exact path rounds decimal → float64 → float32; it
	// is wrong exactly when the float64 is the midpoint of two float32s and
	// the decimal was not. Hunt for such decimals inside the exact path's
	// window (15 digits): print float32 midpoints to 15 digits and keep the
	// ones that read back as the midpoint itself.
	onMidpoint, misrounds := 0, 0
	for i := 0; i < n; i++ {
		lo := math.Float32frombits(r.Uint32()&0x007fffff | uint32(100+r.Intn(100))<<23)
		mid := (float64(lo) + float64(math.Nextafter32(lo, float32(math.Inf(1))))) / 2
		tok := strconv.FormatFloat(mid, 'g', 15, 64)
		if f, _ := strconv.ParseFloat(tok, 64); f != mid {
			continue
		}
		onMidpoint++
		want, _ := strconv.ParseFloat(tok, 32)
		if float32(mid) != float32(want) {
			misrounds++
		}
		checkFloat(t, tok)
		checkFloat(t, "-"+tok)
	}
	if misrounds < 100 {
		t.Errorf("only %d of %d midpoint decimals would misround without the guard: the hunt no longer exercises it", misrounds, onMidpoint)
	}
}

// pixelTokens is the differential corpus of TestPixelTokensMatchStrconv:
// every form a client prints a pixel in, and the forms beside the exact
// step's edges (19 digits, 2^53, float32 midpoints) that must fall through
// to strconv.
func pixelTokens(r *rand.Rand, n int) []string {
	toks := make([]string, 0, n+256)
	// Mantissas around 2^53, the exact step's edge, with the point at every
	// position and as many leading zeros as 19 and 20 digits allow.
	for m := uint64(1<<53 - 2); m <= 1<<53+2; m++ {
		ds := strconv.FormatUint(m, 10)
		for p := 0; p <= len(ds); p++ {
			switch {
			case p == len(ds):
				toks = append(toks, ds)
			case p == 0:
				toks = append(toks, "0."+ds, "0.00"+ds, "0.000"+ds, "0.0000"+ds)
			default:
				toks = append(toks, ds[:p]+"."+ds[p:])
			}
		}
	}
	digits := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('0' + r.Intn(10))
		}
		return string(b)
	}
	for len(toks) < n {
		var tok string
		switch r.Intn(6) {
		case 0, 1: // json.Marshal of a float32: any bit pattern, 'f' or 'e' form
			v := math.Float32frombits(r.Uint32())
			if r.Intn(2) == 0 {
				v = r.Float32() // a pixel
			}
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				continue
			}
			b, err := json.Marshal(v)
			if err != nil {
				panic(err)
			}
			tok = string(b)
		case 2: // 'f' with 0–20 decimals, of a pixel, a byte value or anything below 2^64
			v := []float64{r.Float64(), 256 * r.Float64(), math.Ldexp(r.Float64(), r.Intn(64))}[r.Intn(3)]
			tok = strconv.FormatFloat(v, 'f', r.Intn(21), 64)
		case 3: // a float32 midpoint, plain, to 15, 16 or 17 significant digits
			lo := math.Float32frombits(r.Uint32()&0x007fffff | uint32(96+r.Intn(60))<<23) // 2^-31 to 2^29
			mid := (float64(lo) + float64(math.Nextafter32(lo, float32(math.Inf(1))))) / 2
			sig := 15 + r.Intn(3)
			e := int(math.Floor(math.Log10(mid)))
			tok = strconv.FormatFloat(mid, 'f', max(0, sig-1-e), 64)
		case 4: // 18, 19 and 20 digit characters, the point anywhere or nowhere
			ds := digits(18 + r.Intn(3))
			if ds[0] == '0' {
				ds = "1" + ds[1:]
			}
			if p := r.Intn(len(ds) + 1); p < len(ds) {
				if p == 0 {
					ds = "0." + ds[1:]
				} else {
					ds = ds[:p] + "." + ds[p:]
				}
			}
			tok = ds
		case 5: // short and odd: integers, leading-zero fractions, zeros
			tok = []string{digits(1 + r.Intn(8)), "0." + digits(1+r.Intn(12)), "0", "0.0", "1", "255"}[r.Intn(6)]
			if tok[0] == '0' && len(tok) > 1 && tok[1] != '.' {
				tok = "1" + tok[1:]
			}
		}
		if r.Intn(4) == 0 && tok[0] != '-' {
			tok = "-" + tok
		}
		toks = append(toks, tok)
	}
	return toks
}

// parentData decodes the data array at body[at:] on its own: array's
// closure per element and the number path, with no bound and no sizing.
// Every pixel's error text and offset in a body must be what this says.
func parentData(body []byte, at int) ([]float32, error) {
	d := decoder{b: body, i: at, max: maxFrameElems}
	var data []float32
	err := d.array(func(int) error {
		var v float32
		if d.peek() != 'n' || !d.null() {
			var err error
			if v, err = d.float32(); err != nil {
				return err
			}
		}
		data = append(data, v)
		return nil
	})
	return data, err
}

// Every pixel a body can carry decodes, through the data array, to
// strconv.ParseFloat(tok, 32)'s bits. The tokens go in batches of 61, so
// each form lands first, in the middle and last in an array, behind compact
// and indented separators, with 0–8 bytes of trailing whitespace: a token's
// scan meets every distance from the end of the body. Each token is also
// decoded alone, as the last bytes of its input.
func TestPixelTokensMatchStrconv(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	toks := pixelTokens(r, n)
	const prefix = `{"image":{"data":[`
	var body []byte
	for c := 0; c*61 < len(toks); c++ {
		batch := toks[c*61 : min(len(toks), (c+1)*61)]
		sep := []string{",", ",", ",", ", ", ",\n    ", " ,\t"}[c%6]
		body = append(body[:0], prefix...)
		for k, tok := range batch {
			if k > 0 {
				body = append(body, sep...)
			}
			body = append(body, tok...)
		}
		body = append(body, "]}}"...)
		body = append(body, strings.Repeat(" ", c%9)...)
		dr, err := DecodeDetect(body, 0)
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		for k, tok := range batch {
			want, _ := strconv.ParseFloat(tok, 32)
			if got := dr.Image.Data[k]; math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("%s at %d of %d: %x (%v), strconv says %x (%v)", tok, k, len(batch),
					math.Float32bits(got), got, math.Float32bits(float32(want)), float32(want))
			}
		}
		dr.Release()
	}
	for _, tok := range toks {
		checkFloat(t, tok)
	}
}

// A malformed pixel fails in a body as it does alone in an array, to the
// byte: the same text at the same offset, first, in the middle or last in
// the array.
func TestMalformedPixelsFailAsBefore(t *testing.T) {
	named := []struct{ tok, msg string }{
		{"01.5", "expected ',' or ']' in array"}, {"00", "expected ',' or ']' in array"},
		{"-01", "expected ',' or ']' in array"}, {"1.", "expected a digit after '.'"},
		{"-", "expected a digit"}, {"0.1x", "expected ',' or ']' in array"},
		{".5", "expected a digit"}, {"+1", "expected a digit"}, {"-.5", "expected a digit"},
		{"1e", "expected a digit in exponent"}, {"1.5e+", "expected a digit in exponent"},
		{"0.12345678x", "expected ',' or ']' in array"}, {"0.1234567.8", "expected ',' or ']' in array"},
		{"12345678901234567890.", "expected a digit after '.'"}, {"1e39", "number 1e39 out of float32 range"},
	}
	const prefix = `{"image":{"data":[`
	check := func(t *testing.T, body []byte) error {
		t.Helper()
		_, want := parentData(body, len(prefix)-1)
		_, err := DecodeDetect(body, 0)
		if want != nil && (err == nil || err.Error() != want.Error()) {
			t.Fatalf("%q: error %v, the array alone %v", body, err, want)
		}
		return err
	}
	for _, tc := range named {
		for _, body := range []string{
			prefix + tc.tok + `,0.5]}}`, prefix + `0.5,` + tc.tok + `,0.5]}}`, prefix + `0.5,` + tc.tok + `]}}`, prefix + tc.tok,
		} {
			err := check(t, []byte(body))
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("%q: error %v, want %q", body, err, tc.msg)
			}
		}
	}
	// Mutations of pixel tokens: a byte inserted, dropped or replaced.
	r := rand.New(rand.NewSource(33))
	const alphabet = "0123456789.-+eE x,]n"
	for _, tok := range pixelTokens(r, 100000) {
		b := []byte(tok)
		p := r.Intn(len(b) + 1)
		switch c := alphabet[r.Intn(len(alphabet))]; r.Intn(3) {
		case 0:
			b = append(b[:p], append([]byte{c}, b[p:]...)...)
		case 1:
			if p < len(b) {
				b = append(b[:p], b[p+1:]...)
			}
		default:
			if p < len(b) {
				b[p] = c
			}
		}
		body := append([]byte(prefix), b...)
		switch r.Intn(3) {
		case 0:
			body = append(body, ",0.5]}}"...)
		case 1:
			body = append(body, "]}}"...)
		}
		check(t, body)
	}
}

func FuzzDecodeDetect(f *testing.F) {
	for _, body := range decodeCorpus(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body, 8)
		checkAgainstReference(t, body, 0)
	})
}

// BenchmarkDecodeDetect is the decode alone, on a client's body (json.Marshal
// of a 3×32×32 frame), beside the decoder it replaced; "indented" is the
// same frame through json.MarshalIndent, so the whitespace between values is
// timed too.
func BenchmarkDecodeDetect(b *testing.B) {
	body, _ := marshalImage(b, "patrol", 32, 5)
	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "  "); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		body   []byte
		decode func([]byte) (*DetectBody, error)
	}{
		{"wire", body, func(body []byte) (*DetectBody, error) { return DecodeDetect(body, 32) }},
		{"wire_indented", indented.Bytes(), func(body []byte) (*DetectBody, error) { return DecodeDetect(body, 32) }},
		{"encoding_json", body, refDecode},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
