package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"itask"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/testutil"
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

// fixedBackend answers an image with the payload its first pixel indexes,
// as the variant "fx@v<version>": a test chooses each answer's backing
// array, and a new version is a new model whose answers nothing has cached.
type fixedBackend struct {
	mu       sync.Mutex
	version  int
	variant  string
	payloads [][]itask.Detection
}

func (b *fixedBackend) Route(string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.variant, nil
}

func (b *fixedBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]any, len(imgs))
	for i, img := range imgs {
		out[i] = b.payloads[int(img.Data[0])]
	}
	return out, variant, nil
}

// publish makes p frame i's payload under a new version.
func (b *fixedBackend) publish(i int, p []itask.Detection) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.payloads[i] = p
	b.version++
	b.variant = fmt.Sprintf("fx@v%d", b.version)
}

// indexedFrame is a frame whose first pixel is i.
func indexedFrame(i int) []byte {
	data := make([]float32, 3*testImageSize*testImageSize)
	for j := range data {
		data[j] = 0.25
	}
	data[0] = float32(i)
	return wire.AppendFrame(nil, "patrol", "acme", 0, [3]int{3, testImageSize, testImageSize}, data)
}

// slotSharers returns two payloads that share an answer-memo slot: two
// arrays, or, with prefixes, two lengths of one array.
func slotSharers(prefixes bool) (a, b []itask.Detection) {
	seen := map[uint64][]itask.Detection{}
	var arr []itask.Detection
	for i := 0; ; i++ {
		var p []itask.Detection
		if prefixes {
			if i%256 == 0 {
				arr = make([]itask.Detection, 256)
				for j := range arr {
					arr[j] = itask.Detection{Class: "prefix", ClassID: j}
				}
				clear(seen)
			}
			p = arr[:i%256+1]
		} else {
			p = []itask.Detection{{Class: fmt.Sprint("sharer", i), ClassID: i, Score: float64(i) / 7}}
		}
		slot := answerSlot(p) % answerSlots
		if q, ok := seen[slot]; ok {
			return q, p
		}
		seen[slot] = p
	}
}

// answerWriter is an http.ResponseWriter a test resets and reuses, so
// counting a handler's allocations counts its own alone.
type answerWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *answerWriter) Header() http.Header  { return w.header }
func (w *answerWriter) WriteHeader(code int) { w.code = code }
func (w *answerWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// TestDoorAnswersHitsFromTheAnswerMemo: a result-cache hit's detections are
// written from the answer memo, and every hit's answer is the one that
// filled the cache, to the byte less the clock's fields — for a payload
// that shares its memo slot, for an empty one, and after a new version
// gave the frame a new payload.
func TestDoorAnswersHitsFromTheAnswerMemo(t *testing.T) {
	a, b := slotSharers(false)
	short, long := slotSharers(true)
	be := &fixedBackend{variant: "fx@v0", payloads: [][]itask.Detection{a, b, {}, short, long}}
	srv, err := serve.New(be, serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	h := &handler{srv: srv, imageSize: testImageSize}
	answer := func(i int) string {
		t.Helper()
		rec := postDetect(h, indexedFrame(i), wire.ContentType)
		if rec.Code != http.StatusOK {
			t.Fatalf("frame %d: %d %s", i, rec.Code, rec.Body)
		}
		return timings.ReplaceAllString(rec.Body.String(), "")
	}
	// hitOf is a miss's answer as a hit writes it.
	hitOf := func(miss string) string {
		if strings.Contains(miss, `"cached":true`) {
			t.Fatalf("a first answer is cached: %s", miss)
		}
		return strings.Replace(miss, `,"detections":`, `,"cached":true,"detections":`, 1)
	}

	wantA := hitOf(answer(0))
	for i := 0; i < 3; i++ {
		if got := answer(0); got != wantA {
			t.Fatalf("hit %d:\n%s\nwant\n%s", i, got, wantA)
		}
	}
	if _, ok := h.answers.get(a); !ok {
		t.Fatal("a hit's payload was not memoized")
	}
	// A hit writes the memo's bytes; a slot emptied is filled again.
	h.answers.put(a, []byte(`["memo"]`))
	if got := answer(0); !strings.Contains(got, `"detections":["memo"]}`) {
		t.Fatalf("a memoized hit did not write the memo's bytes: %s", got)
	}
	h.answers.store(answerSlot(a), nil)
	if got := answer(0); got != wantA {
		t.Fatalf("hit after the slot was emptied:\n%s\nwant\n%s", got, wantA)
	}

	// Two payloads that share a slot each get their own answer, turn about:
	// two arrays, and two lengths of one array.
	wantB := hitOf(answer(1))
	if wantB == wantA {
		t.Fatal("the slot sharers answer alike")
	}
	wantShort, wantLong := hitOf(answer(3)), hitOf(answer(4))
	for i := 0; i < 4; i++ {
		for frame, want := range map[int]string{0: wantA, 1: wantB, 3: wantShort, 4: wantLong} {
			if got := answer(frame); got != want {
				t.Fatalf("turn %d, frame %d:\n%s\nwant\n%s", i, frame, got, want)
			}
		}
	}

	// Every empty slice shares one address: an empty answer is [] always.
	wantEmpty := hitOf(answer(2))
	if !strings.HasSuffix(wantEmpty, `"detections":[]}`+"\n") {
		t.Fatalf("empty answer %s", wantEmpty)
	}
	for i := 0; i < 2; i++ {
		if got := answer(2); got != wantEmpty {
			t.Fatalf("empty hit %d:\n%s\nwant\n%s", i, got, wantEmpty)
		}
	}

	// A new version gives frame 0 a new payload: its answers carry it.
	be.publish(0, []itask.Detection{{Class: "republished", Score: 0.5}})
	wantNew := hitOf(answer(0))
	if !strings.Contains(wantNew, `"Class":"republished"`) || !strings.Contains(wantNew, `"model":"fx@v1"`) {
		t.Fatalf("answer after the new version: %s", wantNew)
	}
	for i := 0; i < 2; i++ {
		if got := answer(0); got != wantNew {
			t.Fatalf("hit %d after the new version:\n%s\nwant\n%s", i, got, wantNew)
		}
	}

	// Concurrent hits on the two lengths of one array store and load their
	// shared slot at once.
	wantB = hitOf(answer(1))
	wants := map[int]string{1: wantB, 3: hitOf(answer(3)), 4: hitOf(answer(4))}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				frame := []int{1, 3, 4}[(g+i)%3]
				want := wants[frame]
				rec := postDetect(h, indexedFrame(frame), wire.ContentType)
				if got := timings.ReplaceAllString(rec.Body.String(), ""); got != want {
					t.Errorf("concurrent hit on frame %d: %d\n%s\nwant\n%s", frame, rec.Code, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()

	// A memoized hit allocates no more than a hit that encodes its answer:
	// 9 objects, all the door's own through this writer (the request, the
	// serve call, the answer's headers); the memo's lookup allocates none.
	// The hits are counted once the hot tier has promoted the frame: the
	// replica is the same payload, and the promotion is a one-off.
	body := indexedFrame(1)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", rd)
	req.Header.Set("Content-Type", wire.ContentType)
	w := &answerWriter{header: http.Header{}}
	hit := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(w.header)
		w.body = w.body[:0]
		h.detect(w, req)
	}
	for i := 0; i < 2*serve.DefaultConfig().HotThreshold; i++ {
		hit()
	}
	// Under -race sync.Pool drops one Put in four (the body's buffer, the
	// answer's encoder): a hit that encodes reads 11 or 12 objects there.
	slack := 0.0
	if testutil.Race {
		slack = 3
	}
	for _, procs := range []int{1, 2} {
		if objects, _ := testutil.MemPerRunAt(procs, 200, hit); objects > 9+slack {
			t.Errorf("GOMAXPROCS=%d: a memoized hit allocates %.0f objects, want <= %.0f", procs, objects, 9+slack)
		}
		if got := timings.ReplaceAllString(string(w.body), ""); w.code != http.StatusOK || got != wantB {
			t.Fatalf("GOMAXPROCS=%d: last hit %d\n%s\nwant\n%s", procs, w.code, got, wantB)
		}
		if objects, _ := testutil.MemPerRunAt(procs, 200, func() { h.answers.get(b) }); objects != 0 {
			t.Errorf("GOMAXPROCS=%d: the memo's lookup allocates %.0f objects", procs, objects)
		}
	}
}
