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

// A granted lease warms at once — there is no epoch to wait for here — ramps
// on renewals, turns suspect and expires without them, and a rejoin starts
// the ramp afresh.
func TestLifecycleJoinRampExpireRejoin(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 4)

	// Join: warming at 1/4 from the grant, then 2/4, 3/4, active.
	rec, err := r.Join(Meta{Addr: "http://s1"})
	if err != nil || rec.State != StateWarming || r.Weight(&rec) != 0.25 {
		t.Fatalf("join: %+v err=%v, want warming 0.25", rec, err)
	}
	for i, want := range []float64{0.5, 0.75, 1} {
		clk.advance(300 * time.Millisecond)
		if err = r.Renew(&rec, Meta{}); err != nil || r.Weight(&rec) != want {
			t.Fatalf("ramp window %d: weight %g err=%v, want %g", i+2, r.Weight(&rec), err, want)
		}
	}
	if rec.State != StateActive {
		t.Fatalf("fully ramped state = %v, want active", rec.State)
	}

	// Miss heartbeats: suspect at 400ms (still live), expired at 1s.
	clk.advance(500 * time.Millisecond)
	if r.Sweep(&rec) {
		t.Fatal("suspect sweep expired the member")
	}
	if rec.State != StateSuspect || !rec.State.Live() || r.Weight(&rec) != 1 {
		t.Fatalf("suspect: %+v, want live at weight 1", rec)
	}
	clk.advance(600 * time.Millisecond)
	if !r.Sweep(&rec) || rec.State != StateExpired || r.Weight(&rec) != 0 {
		t.Fatalf("expiry sweep: %+v", rec)
	}
	if r.Sweep(&rec) {
		t.Fatal("an expired member expired again")
	}
	if err := r.Renew(&rec, Meta{}); err != ErrUnknown {
		t.Fatalf("renew of expired lease: %v, want ErrUnknown", err)
	}

	// Rejoin: a fresh lease, warming from the first window again.
	rec, err = r.Join(Meta{Addr: "http://s1"})
	if err != nil || rec.State != StateWarming || r.Weight(&rec) != 0.25 {
		t.Fatalf("rejoin: %+v err=%v", rec, err)
	}
	if e := r.Entry("s1", &rec); e.ExpiresAt != clk.now().Add(time.Second) || e.ID != "s1" || e.Addr != "http://s1" {
		t.Fatalf("rejoin entry: %+v", e)
	}
}

func TestSuspectRenewalRestoresPreSuspectPosition(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 4)
	rec, _ := r.Join(Meta{}) // ramp 1/4
	r.Renew(&rec, Meta{})    // ramp 2/4
	clk.advance(500 * time.Millisecond)
	r.Sweep(&rec)
	if rec.State != StateSuspect || r.Weight(&rec) != 0.5 {
		t.Fatalf("pre-renewal: %+v", rec)
	}
	if err := r.Renew(&rec, Meta{}); err != nil || rec.State != StateWarming || r.Weight(&rec) != 0.5 {
		t.Fatalf("post-renewal: %+v err=%v, want warming back at 0.5", rec, err)
	}
}

func TestGracefulLeaveAndRejoin(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 1)
	rec, _ := r.Join(Meta{})
	if rec.State != StateActive || r.Weight(&rec) != 1 { // RampWindows=1: full weight on the grant
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
	if rec, err := r.Join(Meta{}); err != nil || rec.State != StateActive {
		t.Fatalf("rejoin after leave: %+v err=%v", rec, err)
	}
}

func TestStaticMembersSkipLeases(t *testing.T) {
	clk := newClock()
	r := testRules(clk, 4)
	rec, err := r.Join(Meta{Addr: "seed", Static: true})
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
	rec, _ := r.Join(Meta{Addr: "a"})
	clk.advance(900 * time.Millisecond) // one sweep away from expiry
	if err := r.Renew(&rec, Meta{Addr: "b"}); err != nil {
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

func TestNoLeaseTTLRejectsLeasedAnnounce(t *testing.T) {
	r := Rules{}.WithDefaults()
	if _, err := r.Join(Meta{}); err != ErrNoLeases {
		t.Fatalf("leased join without a LeaseTTL: %v, want ErrNoLeases", err)
	}
	if _, err := r.Join(Meta{Static: true}); err != nil {
		t.Fatalf("static join without a LeaseTTL: %v", err)
	}
}
