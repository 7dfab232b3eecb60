package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"itask/internal/member"
)

// epoch.go: cluster-wide model publishes. Each shard carries its own
// versioned model registry, and its route epoch names the content that
// registry serves (registry.Snapshot.Identity: a hash of the name and
// checksum of each routable name's newest version), not how many times it
// swapped. Shards that loaded the same bytes report the same epoch — after
// a restart, on a fresh machine, after a reload of an unchanged directory —
// and shards that serve different bytes report different ones.
//
// A publish applied shard-by-shard with nothing watching would let shard A
// serve model v2 while shard B still serves v1 for as long as B takes —
// clients behind the gateway would see version flapping keyed by which
// shard their frame hashes to. Propagate bounds that window and makes it
// observable, with one algorithm:
//
//   - the publish is validated once, at the gateway, before any member is
//     touched — one without a payload, or for a fleet with a member that
//     cannot take it, is refused with the fleet unchanged;
//   - it is applied on every live member, concurrently — on the ring or off
//     it for its epoch, so a member left behind by one publish, restarted
//     or added since, catches up on the next. Each apply is one synchronous
//     exchange whose answer is the member's resulting epoch;
//   - the committed epoch becomes the value most applies answered (a tie
//     goes to the value of the lowest member id), and in the same step each
//     apply's answer becomes that member's last report. Propagate then
//     returns, naming every member whose apply failed or answered another
//     value.
//
// Every member stores one epoch, its last report — from its announce or
// heartbeat, the prober or an apply. routable admits a member only while
// that report is the committed epoch, so a member whose apply failed, or
// that serves other bytes, is off the ring until a report shows the
// committed content. Staleness is a routing condition, not a silent wrong
// answer, and a member that never converges costs the fleet its capacity,
// not its consistency.
//
// Demoting or rolling back a version is each shard's own business
// (Pipeline.RollbackModel, the serve.VariantHealthSink auto-rollback), and
// it leaves the shard's epoch, and so its place on the ring, as it was:
// only a publish crosses the fleet.

// ChangeApplier is implemented by nodes that take a fleet-wide publish:
// Publish activates the payload (what the node understands as a model
// artifact: for ServeNode a registry.Artifact) and returns the node's
// resulting route epoch. It returns only once the node routes at the epoch
// it returns, so that answer is the member's report.
type ChangeApplier interface {
	Publish(ctx context.Context, payload any) (uint64, error)
}

// Propagate publishes payload on every live member and returns the epoch it
// committed: the one most applies answered. A member whose apply fails, or
// answers another epoch, is named in the returned error and is off the ring
// until it reports the committed one. When no member took the publish,
// nothing is committed.
func (g *Gateway) Propagate(ctx context.Context, payload any) (uint64, error) {
	if payload == nil {
		return 0, errors.New("gateway: publish needs a payload")
	}
	g.mu.Lock()
	shards := g.membersLocked(member.State.Live)
	g.mu.Unlock()
	if len(shards) == 0 {
		return 0, ErrNoNodes
	}
	for _, m := range shards {
		if _, ok := m.node.(ChangeApplier); !ok {
			return 0, fmt.Errorf("%w: %s", ErrUnsupportedChange, m.id)
		}
	}
	epochs := make([]uint64, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, m := range shards {
		wg.Add(1)
		go func(i int, m *shard) {
			defer wg.Done()
			ep, err := m.node.(ChangeApplier).Publish(ctx, payload)
			if err != nil {
				errs[i] = fmt.Errorf("apply on %s: %w", m.id, err)
				return
			}
			epochs[i] = ep
		}(i, m)
	}
	wg.Wait()
	// The plurality answer; shards are in id order, so a tie goes to the
	// lowest id's answer.
	votes := map[uint64]int{}
	for i, err := range errs {
		if err == nil {
			votes[epochs[i]]++
		}
	}
	var epoch uint64
	top := 0
	for i, err := range errs {
		if err == nil && votes[epochs[i]] > top {
			epoch, top = epochs[i], votes[epochs[i]]
		}
	}
	if top == 0 {
		return 0, errors.Join(errs...)
	}
	// Commit: the new epoch and each apply's answer as that member's report,
	// in one step, so the ring never sees the one without the other.
	g.mu.Lock()
	g.committedEpoch.Store(epoch)
	for i, m := range shards {
		if errs[i] != nil {
			continue
		}
		m.epoch = epochs[i]
		if epochs[i] != epoch {
			errs[i] = fmt.Errorf("%s answered epoch %d after the publish, not the committed %d", m.id, epochs[i], epoch)
		}
	}
	g.rebuildLocked()
	g.mu.Unlock()
	g.m[cPropagates].Add(1)
	return epoch, errors.Join(errs...)
}
