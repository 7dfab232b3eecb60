package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"itask"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// pixelBackend answers every image with one detection read off its pixels,
// so two answers agree only for the same pixels.
type pixelBackend struct{}

func (pixelBackend) Route(string) (string, error) { return "px@v1", nil }

func (pixelBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	out := make([]any, len(imgs))
	for i, img := range imgs {
		sum := 0.0
		for _, v := range img.Data {
			sum += float64(v)
		}
		out[i] = []itask.Detection{{Class: task, Score: sum, Relevance: float64(img.Data[0])}}
	}
	return out, variant, nil
}

// timings matches the two fields of an answer that are the clock's.
var timings = regexp.MustCompile(`"(queued|total)_us":[0-9.e+-]+`)

// TestDoorKeysRepeatedBodiesOffTheirBytes: a JSON image body is memoized by
// its first full decode; afterwards its answer is the one an empty memo
// gives, to the byte less the clock's fields, and every variant of it that
// parseDetect refuses gets parseDetect's 400, word for word.
func TestDoorKeysRepeatedBodiesOffTheirBytes(t *testing.T) {
	jsonBody, _ := testFrameBodies(t)
	dr, text, ok := wire.ProbeDetect(jsonBody, testImageSize)
	if !ok {
		t.Fatal("the probe refuses a client's body")
	}
	key := memoKey(dr.Image.Shape, text)

	// The variants: the first pixel's point, the shape, the first pixel
	// spelled 0.5x, a duplicate member, trailing data.
	at := bytes.Index(jsonBody, []byte(`"data":[`)) + len(`"data":[`)
	end := at + bytes.IndexByte(jsonBody[at:], ',')
	point := at + bytes.IndexByte(jsonBody[at:], '.')
	variants := map[string][]byte{
		"pixel byte":   append(append(append([]byte{}, jsonBody[:point]...), 'x'), jsonBody[point+1:]...),
		"shape":        bytes.Replace(jsonBody, []byte(`"shape":[3,8,8]`), []byte(`"shape":[3,8,7]`), 1),
		"0.5x":         append(append(append([]byte{}, jsonBody[:at]...), "0.5x"...), jsonBody[end:]...),
		"duplicate":    append([]byte(`{"tenant":"acme",`), jsonBody[1:]...),
		"trailing":     append(append([]byte{}, jsonBody...), 'x'),
		"other pixels": append(append(append([]byte{}, jsonBody[:at]...), "0.5"...), jsonBody[end:]...),
	}
	for name, body := range variants {
		if bytes.Equal(body, jsonBody) {
			t.Fatalf("%s: the variant is the body itself", name)
		}
	}

	for _, cacheOn := range []bool{true, false} {
		cfg := serve.DefaultConfig()
		if !cacheOn {
			cfg.CacheBytes = 0
		}
		srv, err := serve.New(pixelBackend{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
		h := &handler{srv: srv, imageSize: testImageSize}
		answer := func(body []byte) (int, string) {
			rec := postDetect(h, body, "application/json")
			return rec.Code, timings.ReplaceAllString(rec.Body.String(), "")
		}

		code, first := answer(jsonBody)
		if code != http.StatusOK {
			t.Fatalf("cache %v: first answer %d %s", cacheOn, code, first)
		}
		if _, ok := h.memo.get(key); !ok {
			t.Fatalf("cache %v: a decoded body was not memoized", cacheOn)
		}
		_, memoized := answer(jsonBody)
		for i := range h.memo.slots {
			h.memo.slots[i].Store(nil)
		}
		_, empty := answer(jsonBody)
		if memoized != empty {
			t.Fatalf("cache %v: memoized answer\n%s\nmemo-empty answer\n%s", cacheOn, memoized, empty)
		}
		if !cacheOn && memoized != first {
			t.Fatalf("uncached: memoized answer\n%s\nfirst answer\n%s", memoized, first)
		}
		if cached := strings.Contains(memoized, `"cached":true`); cached != cacheOn {
			t.Fatalf("cache %v: repeated answer %s", cacheOn, memoized)
		}

		for name, body := range variants {
			code, got := answer(body)
			if name == "other pixels" {
				if code != http.StatusOK || strings.Contains(got, `"cached":true`) || got == first {
					t.Fatalf("cache %v: %s: %d %s, want a fresh answer of its own", cacheOn, name, code, got)
				}
				continue
			}
			_, perr := parseDetect("application/json", body, testImageSize)
			if perr == nil {
				t.Fatalf("%s: parseDetect accepts the variant", name)
			}
			want, _ := json.Marshal(map[string]string{"error": perr.Error()})
			if code != http.StatusBadRequest || got != string(want)+"\n" {
				t.Fatalf("cache %v: %s: %d %s, want 400 %s", cacheOn, name, code, got, want)
			}
		}
	}
}
