package serve

import (
	"context"
	"errors"
	"testing"

	"itask/internal/rcache"
	"itask/internal/tensor"
)

// keyedRequest is img as a request keyed by its digest, whose Decode
// counts its calls in *calls and fails with err when err is set.
func keyedRequest(img *tensor.Tensor, calls *int, err error) Request {
	return Request{Task: "patrol", Digest: rcache.DigestImage(img), Decode: func() (*tensor.Tensor, error) {
		*calls++ // Decode runs on the caller's goroutine
		if err != nil {
			return nil, err
		}
		return img, nil
	}}
}

// A request keyed by its digest is decoded once per cache miss, never on a
// hit, and shares its cache entry with the same image sent as pixels.
func TestDecodeRunsOnlyOnAMiss(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		cache bool
	}{{"cache", true}, {"no cache, no coalescing", false}} {
		t.Run(tc.name, func(t *testing.T) {
			b := newVersionedBackend("m@v1#aa")
			cfg := DefaultConfig()
			if !tc.cache {
				cfg.CacheBytes, cfg.Coalesce = 0, false
			}
			s := newTestServer(t, b, cfg)
			img := testImage()
			calls := 0
			req := keyedRequest(img, &calls, nil)
			if res, err := s.Detect(ctx, req); err != nil || res.Cached || calls != 1 {
				t.Fatalf("first request: %v, cached %v, %d decodes, want one", err, res.Cached, calls)
			}
			res, err := s.Detect(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{true: 1, false: 2}[tc.cache]; calls != want || res.Cached != tc.cache {
				t.Fatalf("second request: cached %v after %d decodes, want cached %v after %d", res.Cached, calls, tc.cache, want)
			}
			if res, err := s.Detect(ctx, Request{Task: "patrol", Image: img.Clone()}); err != nil || res.Cached != tc.cache {
				t.Fatalf("the image as pixels: %v, cached %v, want %v", err, res.Cached, tc.cache)
			}
			checkBooks(t, s.Snapshot())
		})
	}
}

// A Decode error comes back as it is and counts as a shape rejection, as
// does a decoded image the backend's validator refuses; neither is
// accepted, and neither reaches the backend.
func TestDecodeErrorIsARejection(t *testing.T) {
	fb := &badShapeBackend{*newFaultBackend()}
	s := newTestServer(t, fb, faultConfig())
	ctx := context.Background()
	bad := errors.New("bad JSON: expected a digit at offset 40")
	calls := 0
	if _, err := s.Detect(ctx, keyedRequest(testImage(), &calls, bad)); err != bad || calls != 1 {
		t.Fatalf("err = %v after %d decodes, want the decoder's own error after one", err, calls)
	}
	if _, err := s.Detect(ctx, keyedRequest(tensor.New(7), &calls, nil)); !errors.Is(err, ErrBadShape) {
		t.Fatalf("err = %v, want ErrBadShape", err)
	}
	snap := s.Snapshot()
	if snap.RejectedShape != 2 || snap.Accepted != 0 || fb.executions("student") != 0 {
		t.Fatalf("rejected %d, accepted %d, executed %d; want 2, 0, 0", snap.RejectedShape, snap.Accepted, fb.executions("student"))
	}
	checkBooks(t, snap)
}
