package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"itask/internal/tensor"
)

// readerBackend reads every pixel of every image it executes and keeps the
// books of who is reading what: an image the test has handed back
// (released, as cmd/itask-serve recycles it after a successful Detect) must
// have no read in flight and must never be read again. Handing back also
// overwrites the pixels with NaN, so a late read shows as a NaN sum, and
// under -race as a race with the overwrite. Executions can be gated (enter
// is signalled, then release awaited) and the next execution can be made to
// fail.
type readerBackend struct {
	mu         sync.Mutex
	reading    map[*tensor.Tensor]int
	released   map[*tensor.Tensor]bool
	violations []string
	executed   int

	enter    chan struct{}
	release  chan struct{}
	failNext bool
}

func newReaderBackend() *readerBackend {
	return &readerBackend{reading: map[*tensor.Tensor]int{}, released: map[*tensor.Tensor]bool{}}
}

func (b *readerBackend) Route(string) (string, error) { return "m@v1#aa", nil }

func (b *readerBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	b.mu.Lock()
	b.executed++
	for _, img := range imgs {
		if b.released[img] {
			b.violations = append(b.violations, fmt.Sprintf("execution %d began reading a released image", b.executed))
		}
		b.reading[img]++
	}
	enter, release, fail := b.enter, b.release, b.failNext
	b.failNext = false
	b.mu.Unlock()

	var sum float32
	for _, img := range imgs {
		for _, v := range img.Data {
			sum += v
		}
	}
	if enter != nil {
		enter <- struct{}{}
		<-release
	}

	b.mu.Lock()
	if sum != sum {
		b.violations = append(b.violations, "an execution read a handed-back image's pixels")
	}
	for _, img := range imgs {
		if b.released[img] {
			b.violations = append(b.violations, "an image was released while an execution read it")
		}
		b.reading[img]--
	}
	b.mu.Unlock()
	if fail {
		return nil, "", errors.New("reader: forced failure")
	}
	out := make([]any, len(imgs))
	for i := range out {
		out[i] = sum
	}
	return out, variant, nil
}

// handBack is what a door does once Detect returned nil: the image is the
// caller's again, to overwrite. Any read of it still in flight is a
// violation.
func (b *readerBackend) handBack(img *tensor.Tensor) {
	b.mu.Lock()
	if b.reading[img] != 0 {
		b.violations = append(b.violations, "Detect returned nil with a read of its image in flight")
	}
	b.released[img] = true
	b.mu.Unlock()
	for i := range img.Data {
		img.Data[i] = float32(math.NaN())
	}
}

func (b *readerBackend) check(t *testing.T) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, v := range b.violations {
		t.Error(v)
	}
}

// gate makes every later execution signal enter and wait for release.
func (b *readerBackend) gate() (enter, release chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.enter, b.release = make(chan struct{}), make(chan struct{})
	return b.enter, b.release
}

// frame is a fresh image with content n: equal n, equal digest.
func frame(n int) *tensor.Tensor {
	img := testImage()
	img.Data[0] = float32(n)
	return img
}

// TestSuccessLeavesImageUnread holds serve.Detect's ownership rule on every
// success path: when Detect returns nil, every backend read of that
// request's image has returned, and none follows — for an execution (with
// and without the watchdog's goroutine), a result-cache hit, a hot-replica
// hit, a coalesced follower, and a follower re-executed after its leader
// failed. Each image is handed back the moment its Detect returns nil, as
// cmd/itask-serve recycles the pixels, and the backend flags any read in
// flight then or begun later.
func TestSuccessLeavesImageUnread(t *testing.T) {
	ctx := context.Background()
	detect := func(s *Server, b *readerBackend, img *tensor.Tensor) (Result, error) {
		res, err := s.Detect(ctx, Request{Task: "patrol", Image: img})
		if err == nil {
			b.handBack(img)
		}
		return res, err
	}
	// concurrently runs n requests, request i for content(i), all at once.
	concurrently := func(t *testing.T, s *Server, b *readerBackend, n int, content func(i int) int) []Result {
		results := make([]Result, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := detect(s, b, frame(content(i)))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
				}
				results[i] = res
			}(i)
		}
		wg.Wait()
		return results
	}
	// drain waits for every execution, so a late read would be on the books.
	drain := func(s *Server) {
		c, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_ = s.Shutdown(c)
	}

	for _, watchdog := range []time.Duration{10 * time.Second, 0} {
		t.Run(fmt.Sprintf("execution/watchdog=%v", watchdog), func(t *testing.T) {
			b := newReaderBackend()
			cfg := DefaultConfig()
			cfg.Watchdog = watchdog
			s := newTestServer(t, b, cfg)
			concurrently(t, s, b, 32, func(i int) int { return i })
			drain(s)
			b.check(t)
		})
	}

	t.Run("cache and hot replica", func(t *testing.T) {
		b := newReaderBackend()
		cfg := DefaultConfig()
		cfg.HotThreshold = 2
		s := newTestServer(t, b, cfg)
		if _, err := detect(s, b, frame(1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			res, err := detect(s, b, frame(1))
			if err != nil || !res.Cached {
				t.Fatalf("repeat %d: cached %v, %v", i, res.Cached, err)
			}
		}
		if rc := s.Snapshot().ResultCache; rc == nil || rc.HotHits == 0 {
			t.Fatalf("no repeat was served from the hot replica tier: %+v", rc)
		}
		drain(s)
		b.check(t)
	})

	for _, leaderFails := range []bool{false, true} {
		name := "coalesced followers"
		if leaderFails {
			name = "followers re-executed after their leader failed"
		}
		t.Run(name, func(t *testing.T) {
			b := newReaderBackend()
			s := newTestServer(t, b, DefaultConfig())
			enter, release := b.gate()
			b.failNext = leaderFails
			leader := make(chan error, 1)
			go func() {
				_, err := detect(s, b, frame(7))
				leader <- err
			}()
			<-enter // the leader is reading its image
			const followers = 6
			done := make(chan []Result, 1)
			go func() { done <- concurrently(t, s, b, followers, func(int) int { return 7 }) }()
			for s.Snapshot().Accepted < followers+1 {
				time.Sleep(time.Millisecond)
			}
			close(release)
			go func() { // re-executions pass the gate too
				for range enter {
				}
			}()
			results := <-done
			if err := <-leader; (err != nil) != leaderFails {
				t.Fatalf("leader: %v", err)
			}
			for i, res := range results {
				if res.Coalesced == leaderFails {
					t.Errorf("follower %d: Coalesced %v with the leader failing %v", i, res.Coalesced, leaderFails)
				}
			}
			drain(s)
			close(enter)
			b.check(t)
		})
	}
}
