package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// checkProbe holds ProbeDetect to ParseDetect on one body at one image size.
// What ParseDetect accepts as an image, the probe accepts. What the probe
// accepts, ParseDetect either accepts with the same task, tenant, timeout
// and shape, its pixels decoded from exactly the probe's data, or refuses
// for the array's contents alone: with the probe's data replaced by 3·S·S
// zeros, ParseDetect accepts the body with the probe's fields.
func checkProbe(t *testing.T, body []byte, size int) {
	t.Helper()
	body = body[:len(body):len(body)] // so the data's offset is cap(body) - cap(data)
	full, err := ParseDetect("application/json", body, size)
	dr, data, ok := ProbeDetect(body, size)
	if !ok {
		if err == nil && full.Image != nil {
			t.Fatalf("size %d: ParseDetect accepts %q, ProbeDetect refuses it", size, body)
		}
		return
	}
	if len(data) < 2 || data[0] != '[' || bytes.IndexByte(data, ']') != len(data)-1 {
		t.Fatalf("size %d: %q: probe's data %q does not run from a '[' to the first ']' after it", size, body, data)
	}
	if dr.Image.Data != nil || dr.pixels != nil {
		t.Fatalf("size %d: %q: the probe decoded pixels", size, body)
	}
	if err == nil {
		if d := sameRequest(dr, full); d != "" {
			t.Fatalf("size %d: %q: probe and ParseDetect disagree: %s", size, body, d)
		}
		px, aerr := parentData(data, 0)
		if aerr != nil || len(px) != len(full.Image.Data) {
			t.Fatalf("size %d: %q: the probe's data %q decodes to %d values (%v), ParseDetect has %d",
				size, body, data, len(px), aerr, len(full.Image.Data))
		}
		for i, v := range px {
			if math.Float32bits(v) != math.Float32bits(full.Image.Data[i]) {
				t.Fatalf("size %d: %q: pixel %d of the probe's data is %v, ParseDetect has %v", size, body, i, v, full.Image.Data[i])
			}
		}
		full.Release()
		return
	}
	at := cap(body) - cap(data)
	zeros := "[" + strings.TrimSuffix(strings.Repeat("0,", 3*size*size), ",") + "]"
	fixed := append(append(append([]byte{}, body[:at]...), zeros...), body[at+len(data):]...)
	got, ferr := ParseDetect("application/json", fixed, size)
	if ferr != nil {
		t.Fatalf("size %d: probe accepts %q, ParseDetect refuses it (%v), and still refuses it (%v) with a valid array for the probe's data",
			size, body, err, ferr)
	}
	if d := sameRequest(dr, got); d != "" {
		t.Fatalf("size %d: %q with a valid array: %s", size, body, d)
	}
	got.Release()
}

// sameRequest describes how a probe's request differs from a decoded one.
func sameRequest(probe, full *DetectBody) string {
	if probe.Task != full.Task || probe.Tenant != full.Tenant || probe.TimeoutMS != full.TimeoutMS {
		return fmt.Sprintf("task/tenant/timeout %q/%q/%d, decoded %q/%q/%d",
			probe.Task, probe.Tenant, probe.TimeoutMS, full.Task, full.Tenant, full.TimeoutMS)
	}
	if full.Image == nil || full.Scene != nil || probe.Scene != nil || fmt.Sprint(probe.Image.Shape) != fmt.Sprint(full.Image.Shape) {
		return fmt.Sprintf("image %+v scene %+v, decoded image %+v scene %+v", probe.Image, probe.Scene, full.Image, full.Scene)
	}
	return ""
}

// probeBodies is image bodies of 3×2×2 pixels in the forms pixelTokens
// spells them, shape before and after the data, compact and spaced, with
// and without the optional members.
func probeBodies(r *rand.Rand, n int) [][]byte {
	toks := pixelTokens(r, n)
	var out [][]byte
	for c := 0; (c+1)*12 <= len(toks); c++ {
		data := "[" + strings.Join(toks[c*12:(c+1)*12], []string{",", ", ", " ,\n"}[c%3]) + "]"
		var body string
		switch c % 4 {
		case 0:
			body = `{"task":"patrol","image":{"shape":[3,2,2],"data":` + data + `}}`
		case 1:
			body = `{"image":{"data":` + data + `,"shape":[3,2,2]},"task":"patrol"}`
		case 2:
			body = ` { "tenant" : "acme" , "image" : { "data" : ` + data + ` , "shape" : [ 3 , 2 , 2 ] } , "task" : "t" , "timeout_ms" : 40 } `
		default:
			body = `{"TASK":"p","image":{"Data":` + data + `,"shape":[3,2,2],"x":[1,[2]]},"scene":null,"y":{"z":"]"}}`
		}
		out = append(out, []byte(body))
	}
	return out
}

// mutate returns body with one byte inserted, dropped or replaced, at
// random, from an alphabet of JSON's structural bytes and a pixel's.
func mutate(r *rand.Rand, body []byte) []byte {
	const alphabet = "0123456789.-+eE x,[]{}:\"n"
	b := append([]byte{}, body...)
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
	return b
}

func TestProbeDetectAgreesWithDecodeDetect(t *testing.T) {
	for _, body := range decodeCorpus(t) {
		for _, size := range []int{8, 1} {
			checkProbe(t, body, size)
		}
	}
	r := rand.New(rand.NewSource(39))
	n := 1 << 15
	if testing.Short() {
		n = 1 << 12
	}
	accepted := 0
	for _, body := range probeBodies(r, n) {
		if _, _, ok := ProbeDetect(body, 2); ok {
			accepted++
		}
		checkProbe(t, body, 2)
		for k := 0; k < 4; k++ {
			checkProbe(t, mutate(r, body), 2)
		}
	}
	if accepted == 0 {
		t.Fatal("the probe accepted none of the pixel bodies")
	}
}

// FuzzProbeDetect is differential: ProbeDetect against ParseDetect, as
// TestProbeDetectAgreesWithDecodeDetect holds them.
func FuzzProbeDetect(f *testing.F) {
	for _, body := range decodeCorpus(f) {
		f.Add(body)
	}
	for _, body := range probeBodies(rand.New(rand.NewSource(39)), 96) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkProbe(t, body, 8)
		checkProbe(t, body, 2)
	})
}
