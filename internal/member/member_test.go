package member

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for lease-timing tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func testRules(c *fakeClock, ramp int) Rules {
	return Rules{LeaseTTL: time.Second, SuspectAfter: 400 * time.Millisecond, RampWindows: ramp, Now: c.now}.WithDefaults()
}

func TestLifecycleJoinConvergeRampExpireRejoin(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 4)

	// Join behind the committed epoch: joining, weight 0, not routable.
	rec, err := r.Join(Meta{Addr: "http://s1", Epoch: 1}, 3)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if rec.State != StateJoining || r.Weight(&rec) != 0 || rec.State.Routable() {
		t.Fatalf("behind-epoch join: %+v, want joining/0/unroutable", rec)
	}

	// Renew while still behind: lease extends but stays gated.
	clk.advance(300 * time.Millisecond)
	if err = r.Renew(&rec, Meta{Epoch: 2}, 3); err != nil || rec.State != StateJoining {
		t.Fatalf("behind renew: %+v err=%v", rec, err)
	}

	// Epoch catches up: warming at 1/4, then ramps 2/4, 3/4, active.
	if err = r.Renew(&rec, Meta{Epoch: 3}, 3); err != nil || !rec.State.Routable() || rec.State != StateWarming || r.Weight(&rec) != 0.25 {
		t.Fatalf("converge: %+v err=%v, want warming 0.25", rec, err)
	}
	for i, want := range []float64{0.5, 0.75, 1} {
		if err = r.Renew(&rec, Meta{Epoch: 3}, 3); err != nil || r.Weight(&rec) != want {
			t.Fatalf("ramp window %d: weight %g err=%v, want %g", i+2, r.Weight(&rec), err, want)
		}
	}
	if rec.State != StateActive {
		t.Fatalf("fully ramped state = %v, want active", rec.State)
	}

	// Miss heartbeats: suspect at 400ms (still routable), expired at 1s.
	clk.advance(500 * time.Millisecond)
	if r.Sweep(&rec) {
		t.Fatal("suspect sweep expired the member")
	}
	if rec.State != StateSuspect || !rec.State.Routable() || r.Weight(&rec) != 1 {
		t.Fatalf("suspect: %+v, want routable at weight 1", rec)
	}
	clk.advance(600 * time.Millisecond)
	if !r.Sweep(&rec) || rec.State != StateExpired {
		t.Fatalf("expiry sweep: %+v", rec)
	}
	if r.Sweep(&rec) {
		t.Fatal("an expired member expired again")
	}
	if err := r.Renew(&rec, Meta{Epoch: 3}, 3); err != ErrUnknown {
		t.Fatalf("renew of expired lease: %v, want ErrUnknown", err)
	}

	// Rejoin: fresh lease, gated on the (now higher) epoch again.
	rec, err = r.Join(Meta{Addr: "http://s1", Epoch: 3}, 5)
	if err != nil || rec.State != StateJoining {
		t.Fatalf("rejoin: %+v err=%v", rec, err)
	}
	if e := r.Entry("s1", &rec); e.ExpiresAt != clk.now().Add(time.Second) || e.ID != "s1" || e.Epoch != 3 {
		t.Fatalf("rejoin entry: %+v", e)
	}
}

// The epoch is the last report, not a highwater: a lower report replaces a
// higher one, and moves no lifecycle state on its own.
func TestLowerReportReplacesHigher(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 1)
	rec, _ := r.Join(Meta{Epoch: 2}, 2)
	if rec.State != StateActive || rec.Epoch != 2 {
		t.Fatalf("join at the committed epoch: %+v", rec)
	}
	r.Renew(&rec, Meta{Epoch: 1}, 2)
	if rec.Epoch != 1 || rec.State != StateActive {
		t.Fatalf("after a lower heartbeat: %+v, want epoch 1, still active", rec)
	}
	r.Report(&rec, 2, 2)
	if rec.Epoch != 2 {
		t.Fatalf("after a higher observation: %+v, want epoch 2", rec)
	}
}

func TestSuspectRenewalRestoresPreSuspectPosition(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 4)
	rec, _ := r.Join(Meta{Epoch: 1}, 0) // converges immediately (committed 0)
	r.Renew(&rec, Meta{Epoch: 1}, 0)    // ramp 2/4
	clk.advance(500 * time.Millisecond)
	r.Sweep(&rec)
	if rec.State != StateSuspect || r.Weight(&rec) != 0.5 {
		t.Fatalf("pre-renewal: %+v", rec)
	}
	if err := r.Renew(&rec, Meta{Epoch: 1}, 0); err != nil || rec.State != StateWarming || r.Weight(&rec) != 0.5 {
		t.Fatalf("post-renewal: %+v err=%v, want warming back at 0.5", rec, err)
	}
}

func TestGracefulLeaveAndRejoin(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 1)
	rec, _ := r.Join(Meta{Epoch: 1}, 0)
	if rec.State != StateActive { // RampWindows=1: full weight on convergence
		t.Fatalf("join with ramp=1: %+v, want active", rec)
	}
	if !r.Leave(&rec) || rec.State != StateLeft {
		t.Fatalf("leave: %+v", rec)
	}
	if r.Leave(&rec) {
		t.Fatal("double leave reported a live member")
	}
	// Left members never expire (no double counting) but can rejoin.
	clk.advance(time.Hour)
	if r.Sweep(&rec) {
		t.Fatal("left member expired")
	}
	if rec.State.Live() {
		t.Fatal("left member still live: the owner would not treat its announce as a rejoin")
	}
	if rec, err := r.Join(Meta{Epoch: 1}, 0); err != nil || rec.State != StateActive {
		t.Fatalf("rejoin after leave: %+v err=%v", rec, err)
	}
}

func TestStaticMembersSkipLeases(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 4)
	rec, err := r.Join(Meta{Addr: "seed", Static: true}, 99)
	if err != nil || rec.State != StateActive || r.Weight(&rec) != 1 {
		t.Fatalf("static join: %+v err=%v", rec, err)
	}
	clk.advance(time.Hour)
	if r.Sweep(&rec) || rec.State != StateActive {
		t.Fatalf("static member expired: %+v", rec)
	}
	if e := r.Entry("seed", &rec); !e.Static || !e.ExpiresAt.IsZero() {
		t.Fatalf("static entry carries a lease: %+v", e)
	}
}

func TestAnnounceOfLiveMemberRenews(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 2)
	rec, _ := r.Join(Meta{Addr: "a", Epoch: 1}, 0)
	clk.advance(900 * time.Millisecond) // one sweep away from expiry
	if err := r.Renew(&rec, Meta{Addr: "b", Epoch: 1}, 0); err != nil {
		t.Fatalf("re-announce: %v", err)
	}
	if rec.Addr != "b" {
		t.Fatalf("meta not refreshed: %+v", rec)
	}
	clk.advance(300 * time.Millisecond) // 1.2s after first lease, 0.3s after renewal
	if r.Sweep(&rec) {
		t.Fatalf("renewed member expired: %+v", rec)
	}
}

func TestConvergeDoesNotExtendLease(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 2)
	rec, _ := r.Join(Meta{Epoch: 1}, 5) // gated
	r.Report(&rec, 5, 5)
	if rec.State != StateWarming {
		t.Fatalf("converge: %+v", rec)
	}
	// The lease clock started at announce; convergence must not reset it.
	clk.advance(1100 * time.Millisecond)
	if !r.Sweep(&rec) {
		t.Fatalf("converged-but-unrenewed member survived: %+v", rec)
	}
}

func TestNoLeaseTTLRejectsLeasedAnnounce(t *testing.T) {
	r := Rules{}.WithDefaults()
	if _, err := r.Join(Meta{}, 0); err != ErrNoLeases {
		t.Fatalf("leased join without a LeaseTTL: %v, want ErrNoLeases", err)
	}
	if _, err := r.Join(Meta{Static: true}, 0); err != nil {
		t.Fatalf("static join without a LeaseTTL: %v", err)
	}
}
