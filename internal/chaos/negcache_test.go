package chaos_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/serve"
)

// A poison storm — the same panicking frame arriving over and over, the
// viral-content case — executes exactly once: the first arrival panics, is
// quarantined in isolation, and lands in the negative cache; every following
// arrival is refused at admission with ErrQuarantined without touching a
// kernel. Healthy traffic flows throughout, and once the short negative TTL
// lapses the content is given a fresh execution.
func TestPoisonStormHitsNegativeCache(t *testing.T) {
	b := chaos.Wrap(newFixed(), chaos.Config{Seed: 21, PanicRate: 0.1})
	cfg := serve.DefaultConfig()
	cfg.NegativeTTL = 300 * time.Millisecond
	cfg.BreakerThreshold = 0 // keep the lane admitting; the negative cache is under test
	s, err := serve.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	poison := poisonImage(t, b, 0)
	const storm = 24

	if _, err := s.Detect(context.Background(), serve.Request{Task: "patrol", Image: poison}); !errors.Is(err, serve.ErrBackendPanic) {
		t.Fatalf("first poison arrival: err = %v, want ErrBackendPanic", err)
	}
	panicsAfterFirst := b.Stats().PoisonPanics

	for i := 1; i < storm; i++ {
		_, err := s.Detect(context.Background(), serve.Request{Task: "patrol", Image: poison})
		if !errors.Is(err, serve.ErrQuarantined) {
			t.Fatalf("storm arrival %d: err = %v, want ErrQuarantined", i, err)
		}
		if i%4 == 0 {
			// Healthy traffic interleaves untouched.
			if _, err := s.Detect(context.Background(), serve.Request{Task: "patrol", Image: cleanImage(t, b, i)}); err != nil {
				t.Fatalf("healthy request during storm: %v", err)
			}
		}
	}

	if got := b.Stats().PoisonPanics; got != panicsAfterFirst {
		t.Fatalf("poison re-executed during storm: panics %d -> %d", panicsAfterFirst, got)
	}
	snap := s.Snapshot()
	if snap.QuarantineBlocked != storm-1 {
		t.Fatalf("QuarantineBlocked = %d, want %d", snap.QuarantineBlocked, storm-1)
	}

	// The negative entry ages out: the content earns one more (failing)
	// execution, proving recovery is possible once a fixed kernel ships.
	time.Sleep(350 * time.Millisecond)
	if _, err := s.Detect(context.Background(), serve.Request{Task: "patrol", Image: poison}); !errors.Is(err, serve.ErrBackendPanic) {
		t.Fatalf("post-TTL poison arrival: err = %v, want ErrBackendPanic", err)
	}
	if got := b.Stats().PoisonPanics; got <= panicsAfterFirst {
		t.Fatal("post-TTL arrival did not re-execute")
	}
}
