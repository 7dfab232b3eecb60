package gateway

import (
	"fmt"
	"testing"
)

func testShards(n int) []*shard {
	ms := make([]*shard, n)
	for i := range ms {
		ms[i] = &shard{id: fmt.Sprintf("node-%02d", i)}
	}
	return ms
}

func sampleKeys(k int) []uint64 {
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = mix64(uint64(i) + 1)
	}
	return keys
}

// Consistent hashing's whole point: adding the (n+1)-th node remaps only
// ~K/(n+1) keys — all of them TO the new node — and removing it remaps only
// its own keys. Everything else keeps its owner, so a membership change
// invalidates one shard's worth of cache locality, not the cluster's.
func TestRingRebalanceBound(t *testing.T) {
	const vnodes, n, K = 128, 10, 20000
	ms := testShards(n + 1)
	before := buildRing(ms[:n], vnodes)
	after := buildRing(ms, vnodes)
	keys := sampleKeys(K)

	moved := 0
	for _, k := range keys {
		ob, oa := before.owner(k), after.owner(k)
		if ob != oa {
			moved++
			if oa != ms[n] {
				t.Fatalf("key %x moved between old members (%s -> %s) on join", k, ob.id, oa.id)
			}
		}
	}
	// Expected share K/(n+1) ≈ 1818; allow vnode-placement variance.
	limit := K * 16 / (10 * (n + 1)) // 1.6 × K/(n+1)
	if moved == 0 || moved > limit {
		t.Fatalf("join remapped %d keys, want (0, %d]", moved, limit)
	}

	// Leave: removing the node sends exactly its keys back; no other key
	// moves between the survivors.
	for _, k := range keys {
		oa, ob := after.owner(k), before.owner(k)
		if oa == ms[n] {
			continue // its keys must redistribute
		}
		if oa != ob {
			t.Fatalf("key %x owned by survivor %s moved on leave", k, oa.id)
		}
	}
}

// Virtual nodes keep per-member key shares near uniform: with 128 vnodes no
// member of 10 owns more than ~1.5× its fair share (the ring is
// deterministic, so this is a fixed property, not a flaky sample).
func TestRingBalance(t *testing.T) {
	const vnodes, n, K = 128, 10, 20000
	rs := buildRing(testShards(n), vnodes)
	counts := map[string]int{}
	for _, k := range sampleKeys(K) {
		counts[rs.owner(k).id]++
	}
	fair := K / n
	for id, c := range counts {
		if c > fair*3/2 || c < fair/2 {
			t.Errorf("member %s owns %d keys, fair share %d", id, c, fair)
		}
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d members own keys", len(counts), n)
	}
}

// successors must start at the owner, be distinct, be capped at the member
// count, and agree across calls — it is both the hot-key replica set and
// the failover order, so every gateway instance must derive the same list.
func TestRingSuccessors(t *testing.T) {
	rs := buildRing(testShards(5), 64)
	for _, k := range sampleKeys(200) {
		succ := rs.successors(nil, k, 3)
		if len(succ) != 3 {
			t.Fatalf("got %d successors, want 3", len(succ))
		}
		if succ[0] != rs.owner(k) {
			t.Fatalf("successors[0] = %s, owner = %s", succ[0].id, rs.owner(k).id)
		}
		seen := map[*shard]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("duplicate member %s in successor set", m.id)
			}
			seen[m] = true
		}
		if all := rs.successors(nil, k, 99); len(all) != 5 {
			t.Fatalf("successors capped at %d, want all 5 members", len(all))
		}
	}
	if rs.successors(nil, 42, 0) != nil {
		t.Fatal("n=0 must return nil")
	}
	if empty := buildRing(nil, 64); empty.owner(42) != nil || empty.successors(nil, 42, 2) != nil {
		t.Fatal("empty ring must return nil owner and successors")
	}
}

// The bounded-load cap on small fleets: ⌈c·(total+1)/n⌉ counts the
// arriving request once and rounds up, so two shards with one request in
// flight each may take a second (the old ⌊c·(total+n)/n⌋ capped them at 1).
func TestLoadCapSmallFleets(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		caps []int64 // for total = 0, 1, 2, …
	}{
		{2, []int64{1, 2, 2, 3, 4, 4}},
		{3, []int64{1, 1, 2, 2, 3, 3}},
	} {
		for total, want := range tc.caps {
			if got := loadCap(1.25, int64(total), tc.n); got != want {
				t.Errorf("loadCap(1.25, total %d, n %d) = %d, want %d", total, tc.n, got, want)
			}
		}
	}
}
