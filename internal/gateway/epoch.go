package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"itask/internal/member"
)

// epoch.go: cluster-wide model publishes. Each shard carries its own
// versioned model registry; the registry snapshot sequence is the shard's
// route epoch. A publish applied shard-by-shard with nothing watching would
// let shard A serve model v2 while shard B still serves v1 for as long as B
// takes — clients behind the gateway would see version flapping keyed by
// which shard their frame hashes to. Propagate bounds that window and makes
// it observable, with one algorithm:
//
//   - the publish is validated once, at the gateway, before any member is
//     touched — one without a payload, or for a fleet with a member that
//     cannot take it, is refused with the fleet unchanged;
//   - it is applied on every member with a converged live lease,
//     concurrently — on the ring or off it for its epoch, so a member left
//     behind by one publish can catch up on the next. Each apply is one
//     synchronous exchange whose answer is the member's resulting epoch;
//   - the committed epoch — the fleet highwater every member is compared
//     against — advances to the highest epoch any member reported, and in
//     the same step each member's apply result becomes its last report.
//     Propagate then returns, naming every member whose apply failed or
//     reported an epoch below the committed one.
//
// Every member stores one epoch, its last report — from its own heartbeat,
// the prober or an apply; a lower report replaces a higher one. A member
// whose report is below the committed epoch — its apply failed, it
// rebooted with stale models — fails the routable rule and is off the ring
// until some report shows it caught up. Staleness is a routing condition,
// not a silent wrong answer, and a member that never converges costs the
// fleet its capacity, not its consistency.
//
// Demoting or rolling back a version is each shard's own business
// (Pipeline.RollbackModel, the serve.VariantHealthSink auto-rollback): only
// a publish crosses the fleet.

// ChangeApplier is implemented by nodes that take a fleet-wide publish:
// Publish activates the payload (what the node understands as a model
// artifact: for ServeNode a registry.Artifact) and returns the node's
// resulting route epoch. It returns only once the node routes at the epoch
// it returns, so that answer is the member's report.
type ChangeApplier interface {
	Publish(ctx context.Context, payload any) (uint64, error)
}

// Propagate publishes payload on every member with a converged live lease
// and returns the cluster's new committed epoch. A member whose apply fails,
// or reports an epoch below the committed one, is named in the returned
// error and left behind the committed epoch — off the ring until it reports
// having caught up. When no member took the publish, nothing is committed.
func (g *Gateway) Propagate(ctx context.Context, payload any) (uint64, error) {
	if payload == nil {
		return 0, errors.New("gateway: publish needs a payload")
	}
	g.mu.Lock()
	shards := g.membersLocked(member.State.Routable)
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
	var epoch uint64
	for _, ep := range epochs {
		epoch = max(epoch, ep)
	}
	if epoch == 0 {
		return 0, errors.Join(errs...)
	}
	// Commit: raise the committed epoch (monotonically) and take each apply
	// result as that member's report, in one step, so the ring never sees
	// the new epoch without the reports that satisfy it.
	g.mu.Lock()
	committed := max(epoch, g.committedEpoch.Load())
	g.committedEpoch.Store(committed)
	for i, m := range shards {
		if errs[i] != nil {
			continue
		}
		g.rules.Report(&m.rec, epochs[i], committed)
		if epochs[i] < committed {
			errs[i] = fmt.Errorf("%s reported epoch %d after the publish, behind the committed %d", m.id, epochs[i], committed)
		}
	}
	g.rebuildLocked()
	g.mu.Unlock()
	g.m[cPropagates].Add(1)
	return committed, errors.Join(errs...)
}
