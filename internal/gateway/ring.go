package gateway

import (
	"sort"
	"sync/atomic"

	"itask/internal/freq"
	"itask/internal/member"
)

// ring.go: the consistent-hash layer. Each backend shard projects a number
// of points onto a 64-bit ring; a request key is routed to the first point
// clockwise from its hash. Virtual nodes smooth the per-shard key share
// (stddev ~ 1/sqrt(vnodes)), and consistent hashing bounds churn: adding or
// removing one shard of n remaps only ~K/n of K keys, so a shard death
// invalidates one shard's worth of result-cache locality instead of
// reshuffling the whole cluster (see TestRingRebalanceBound).
//
// With lease-based membership a shard's point count scales with its
// slow-start weight: a warming shard at weight w projects round(w × vnodes)
// points (at least one). Point v's position depends only on (id, v), so a shard's partial
// point set is always a prefix of its full set — as the ramp advances the
// shard only ever *gains* key ranges it will keep at full weight, and the
// keys it serves while warming are exactly keys it would own anyway. Churn
// during a ramp is therefore monotone, never a reshuffle.
//
// The ring is copy-on-write: mutations (join/leave/expiry/ramp) build a
// fresh ringState under the gateway's mutex and publish it through an atomic
// pointer, so the request path reads the ring lock-free.

// shard is the one record the gateway keeps per member: the node handle,
// the lease lifecycle (rec), the last reported epoch, its current share of
// the ring, and the health and load atomics. The atomics are shared across
// ring generations, so ejections and in-flight counts survive an unrelated
// join/leave. A rejoin after expiry or leave allocates a fresh shard: the
// new incarnation starts with clean health accounting.
type shard struct {
	node Node
	id   string

	// rec is the membership state machine's record; epoch is the member's
	// last reported route epoch — from its announce or heartbeat, a probe
	// or a publish's answer — replacing the one before; vnodes is the
	// ring-point count the current ring generation gives the shard (0: off
	// the ring). All three are guarded by the gateway mutex.
	rec    member.Record
	epoch  uint64
	vnodes int

	// inflight is the gateway-observed concurrent request count, the load
	// signal for bounded-load spill and power-of-two-choices hot routing.
	inflight atomic.Int64
	// consecFails counts consecutive down-class failures (passive and probe);
	// reaching FailThreshold ejects the shard.
	consecFails atomic.Int32
	// ejectedUntil is the unix-nano deadline of the current ejection
	// (0 = healthy). An ejected shard is skipped by routing — its keys
	// rehash to successors — but keeps being probed so it can return early.
	ejectedUntil atomic.Int64

	served   atomic.Uint64
	failures atomic.Uint64
}

// ejected reports whether health accounting has the shard ejected at now.
func (s *shard) ejected(nowNanos int64) bool {
	return s.ejectedUntil.Load() > nowNanos
}

type ringPoint struct {
	hash uint64
	s    *shard
}

// ringState is one immutable generation of the ring.
type ringState struct {
	points []ringPoint // vnode points sorted by hash
	shards []*shard    // sorted by id
	byID   map[string]*shard
}

// buildRing constructs a fresh generation from a shard set. Each shard
// projects its own vnodes count of points (defaulting to defVnodes when
// unset), so membership weight shapes the key share.
func buildRing(shards []*shard, defVnodes int) *ringState {
	rs := &ringState{
		shards: append([]*shard(nil), shards...),
		byID:   make(map[string]*shard, len(shards)),
	}
	sort.Slice(rs.shards, func(i, j int) bool { return rs.shards[i].id < rs.shards[j].id })
	total := 0
	for _, s := range rs.shards {
		if s.vnodes <= 0 {
			s.vnodes = defVnodes
		}
		total += s.vnodes
	}
	rs.points = make([]ringPoint, 0, total)
	for _, s := range rs.shards {
		rs.byID[s.id] = s
		for v := 0; v < s.vnodes; v++ {
			rs.points = append(rs.points, ringPoint{hash: vnodeHash(s.id, v), s: s})
		}
	}
	sort.Slice(rs.points, func(i, j int) bool {
		if rs.points[i].hash != rs.points[j].hash {
			return rs.points[i].hash < rs.points[j].hash
		}
		// Tie-break identical hashes by id so the ring order is total and
		// every gateway instance agrees on it.
		return rs.points[i].s.id < rs.points[j].s.id
	})
	return rs
}

// owner returns the shard owning hash h (first point clockwise), or nil on
// an empty ring.
func (rs *ringState) owner(h uint64) *shard {
	if len(rs.points) == 0 {
		return nil
	}
	i := sort.Search(len(rs.points), func(i int) bool { return rs.points[i].hash >= h })
	if i == len(rs.points) {
		i = 0 // wrap past the highest point
	}
	return rs.points[i].s
}

// smallFleet is the fleet size up to which a request's preference order
// and tried set need no heap.
const smallFleet = 8

// successors returns up to n distinct shards in ring order starting at
// hash h's owner, in buf's storage while it has room. This is both the
// replica set for hot keys and the retry / spill preference order: every
// gateway instance derives the same list.
func (rs *ringState) successors(buf []*shard, h uint64, n int) []*shard {
	if len(rs.points) == 0 || n <= 0 {
		return nil
	}
	out := buf[:0]
	n = min(n, len(rs.shards))
	start := sort.Search(len(rs.points), func(i int) bool { return rs.points[i].hash >= h })
	for i := 0; i < len(rs.points) && len(out) < n; i++ {
		s := rs.points[(start+i)%len(rs.points)].s
		if !containsShard(out, s) {
			out = append(out, s)
		}
	}
	return out
}

func containsShard(ss []*shard, s *shard) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// FNV-1a 64-bit, inlined so the ring has no dependencies.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// vnodeHash places virtual node v of a shard on the ring.
func vnodeHash(id string, v int) uint64 {
	h := fnvString(id)
	h ^= uint64(v) + 0x9e3779b97f4a7c15
	return mix64(h)
}

// mix64 is the splitmix64 finalizer (freq.Mix64): a cheap bijective
// avalanche that decorrelates request keys (already FNV digests) from the
// FNV-derived vnode points, so key hashes and point hashes behave as
// independent uniform draws.
func mix64(x uint64) uint64 {
	return freq.Mix64(x)
}
