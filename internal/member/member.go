// Package member holds the lifecycle rules of one fleet member as a pure
// state machine over one Record: no map, no lock, no I/O. The gateway keeps
// one Record per member id under its own mutex and feeds it announces,
// renewals, leaves and clock ticks through Rules; the clock is injectable
// (Rules.Now), so lease timing is unit-testable without sleeping and without
// a gateway.
//
//		join ──▶ warming ──(N renewals)──▶ active
//		            │                        │
//		            └──── missed renewals ───┴──▶ suspect ──▶ expired
//		graceful leave (any live state) ──▶ left
//
//	  - A granted lease warms at once: its routing weight ramps 1/N, 2/N, … 1
//	    over RampWindows renewals, so a cold result cache is handed a growing
//	    slice of the key space, not a full zipf blast.
//	  - Missed renewals turn it suspect after SuspectAfter (still live — one
//	    lost heartbeat is not death) and expired at LeaseTTL. An expired or
//	    left member that announces again joins afresh.
//	  - Static members (a hand-configured seed list) are active at full weight
//	    at once and hold no lease.
//
// The package knows nothing of route epochs: whether a live member serves
// the fleet's content is the owner's routing rule, not a lifecycle state.
package member

import (
	"errors"
	"fmt"
	"time"
)

// State is a member's lifecycle position.
type State int

const (
	// StateWarming: leased, slow-start ramp in progress. Partial weight.
	StateWarming State = iota
	// StateActive: fully ramped. Weight 1.
	StateActive
	// StateSuspect: missed at least one renewal window. Still live — the
	// lease's grace period is exactly the benefit of doubt — but the next
	// sweep past LeaseTTL expires it.
	StateSuspect
	// StateExpired: the lease lapsed. Removed from routing; the record is
	// kept so a re-announce counts as a rejoin.
	StateExpired
	// StateLeft: deregistered gracefully (the shard said goodbye before
	// draining). Removed from routing.
	StateLeft
)

func (s State) String() string {
	switch s {
	case StateWarming:
		return "warming"
	case StateActive:
		return "active"
	case StateSuspect:
		return "suspect"
	case StateExpired:
		return "expired"
	case StateLeft:
		return "left"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Live reports whether a member in state s holds its place in the fleet
// (anything but expired or left): the lease half of "may it receive work".
func (s State) Live() bool { return s != StateExpired && s != StateLeft }

// Meta is what a shard announces about itself.
type Meta struct {
	// Addr is the shard's reachable address (for HTTP fleets, its base URL).
	Addr string
	// Static marks a seed member: active immediately, full weight, no
	// lease, never expires.
	Static bool
}

// Record is one member's lifecycle state.
type Record struct {
	Addr   string
	State  State
	Static bool

	ramp int // completed warming windows, [0, RampWindows]
	// renewedAt is the last lease grant/extension; suspect and expiry
	// deadlines derive from it.
	renewedAt time.Time
}

// Entry is one member's observable state.
type Entry struct {
	ID    string
	Addr  string
	State State
	// Weight is the member's slow-start weight in [0, 1]: ramp/RampWindows
	// while warming, 1 once active, 0 once expired or left.
	Weight float64
	// ExpiresAt is the lease deadline (zero for static and dead members).
	ExpiresAt time.Time
	Static    bool
}

// ErrUnknown is returned by Renew for a member without a live lease: the
// shard must re-announce to get a new one.
var ErrUnknown = errors.New("member: unknown member (announce first)")

// ErrNoLeases is returned by Join when there is no LeaseTTL and the member
// is not static.
var ErrNoLeases = errors.New("member: leased membership disabled (no LeaseTTL)")

// Rules are the lifecycle parameters. Use WithDefaults before the methods.
type Rules struct {
	// LeaseTTL is how long a lease lives without renewal before the member
	// expires. 0 disables leased membership (static members only).
	LeaseTTL time.Duration
	// SuspectAfter is how long without renewal before a member is marked
	// suspect. 0 derives LeaseTTL/3.
	SuspectAfter time.Duration
	// RampWindows is how many renewal windows the slow-start ramp spans:
	// the first window serves at weight 1/N, the Nth at 1. 0 defaults to 4;
	// 1 disables the ramp (full weight on the lease grant).
	RampWindows int
	// Now is the clock (defaults to time.Now). Injectable for tests.
	Now func() time.Time
}

// WithDefaults fills the derived and defaulted parameters.
func (r Rules) WithDefaults() Rules {
	if r.SuspectAfter <= 0 {
		r.SuspectAfter = r.LeaseTTL / 3
	}
	if r.RampWindows <= 0 {
		r.RampWindows = 4
	}
	if r.Now == nil {
		r.Now = time.Now
	}
	return r
}

// Join starts a fresh lifecycle for an announce (a first join or a rejoin):
// a static seed is active at once; a leased member is granted a lease and
// serves its first ramp window at 1/RampWindows from the grant.
func (r Rules) Join(m Meta) (Record, error) {
	if !m.Static && r.LeaseTTL <= 0 {
		return Record{}, ErrNoLeases
	}
	rec := Record{Addr: m.Addr, Static: m.Static, State: StateActive, renewedAt: r.Now()}
	if !m.Static {
		rec.ramp = 1
		if r.RampWindows > 1 {
			rec.State = StateWarming
		}
	}
	return rec, nil
}

// Renew is one heartbeat (or re-announce) of a live member: extend the
// lease, lift suspicion, advance the slow-start ramp, and refresh the
// address if one is given.
func (r Rules) Renew(rec *Record, m Meta) error {
	if !rec.State.Live() {
		return ErrUnknown
	}
	if m.Addr != "" {
		rec.Addr = m.Addr
	}
	if !rec.Static {
		rec.renewedAt = r.Now()
	}
	switch rec.State {
	case StateWarming:
		rec.ramp++
		fallthrough
	case StateSuspect:
		// A renewal in the grace window restores the pre-suspect position.
		rec.State = StateWarming
		if rec.ramp >= r.RampWindows {
			rec.State = StateActive
		}
	}
	return nil
}

// Leave deregisters a member gracefully. The record is kept (StateLeft) so a
// later announce counts as a rejoin. Reports whether the member was live.
func (r Rules) Leave(rec *Record) bool {
	if !rec.State.Live() {
		return false
	}
	rec.State, rec.ramp = StateLeft, 0
	return true
}

// Sweep advances the lease timers to now: a member past SuspectAfter turns
// suspect, a member past LeaseTTL expires. Reports whether the lease expired
// on this call.
func (r Rules) Sweep(rec *Record) bool {
	if rec.Static || !rec.State.Live() {
		return false
	}
	switch idle := r.Now().Sub(rec.renewedAt); {
	case idle >= r.LeaseTTL:
		rec.State, rec.ramp = StateExpired, 0
		return true
	case idle >= r.SuspectAfter && (rec.State == StateWarming || rec.State == StateActive):
		rec.State = StateSuspect
	}
	return false
}

// Weight is the member's routing weight in [0, 1].
func (r Rules) Weight(rec *Record) float64 {
	switch {
	case !rec.State.Live():
		return 0
	case rec.State == StateActive || rec.ramp >= r.RampWindows:
		return 1
	default:
		return float64(rec.ramp) / float64(r.RampWindows)
	}
}

// Entry is the observable view of a record.
func (r Rules) Entry(id string, rec *Record) Entry {
	e := Entry{ID: id, Addr: rec.Addr, State: rec.State, Weight: r.Weight(rec), Static: rec.Static}
	if !rec.Static && rec.State.Live() {
		e.ExpiresAt = rec.renewedAt.Add(r.LeaseTTL)
	}
	return e
}
