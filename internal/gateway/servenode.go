package gateway

import (
	"context"
	"errors"
	"fmt"

	"itask/internal/registry"
	"itask/internal/serve"
)

// servenode.go: the in-process node adapter. A ServeNode wraps one
// serve.Server shard (and, when the shard routes through a versioned model
// registry, that registry) so an in-process fleet — tests, benches, or a
// single binary hosting several shards — gets the full gateway feature set:
// detection, probing, route-epoch observation, and registry changes.

// ServeNode adapts an in-process serve.Server (plus optional registry) to
// the gateway's Node interfaces.
type ServeNode struct {
	id  string
	srv *serve.Server
	reg *registry.Registry // nil: detect/probe only
}

// NewServeNode wraps a serve.Server shard. reg may be nil for shards
// without a versioned registry; such nodes serve detection and probes but
// reject registry changes and expose no route epoch.
func NewServeNode(id string, srv *serve.Server, reg *registry.Registry) (*ServeNode, error) {
	if id == "" {
		return nil, errors.New("gateway: ServeNode needs an id")
	}
	if srv == nil {
		return nil, errors.New("gateway: ServeNode needs a serve.Server")
	}
	return &ServeNode{id: id, srv: srv, reg: reg}, nil
}

// ID implements Node.
func (n *ServeNode) ID() string { return n.id }

// Detect implements DetectNode.
func (n *ServeNode) Detect(ctx context.Context, req serve.Request) (serve.Result, error) {
	return n.srv.Detect(ctx, req)
}

// Probe implements ProbeNode: a draining shard is down (its keys should
// rehash before it finishes draining), anything else is alive.
func (n *ServeNode) Probe(context.Context) error {
	if n.srv.Draining() {
		return serve.ErrShuttingDown
	}
	return nil
}

// RouteEpoch implements EpochNode over the registry snapshot sequence.
func (n *ServeNode) RouteEpoch(context.Context) (uint64, error) {
	if n.reg == nil {
		return 0, fmt.Errorf("gateway: node %s has no registry", n.id)
	}
	return n.reg.Snapshot().Seq(), nil
}

// ApplyChange implements ChangeApplier: apply the (gateway-validated) change
// to the registry, which bumps the snapshot sequence the serve layer already
// uses as its route epoch, and return that epoch.
func (n *ServeNode) ApplyChange(_ context.Context, c Change) (uint64, error) {
	if n.reg == nil {
		return 0, fmt.Errorf("%w: %s has no registry", ErrUnsupportedChange, n.id)
	}
	switch c.Op {
	case OpPublish:
		art, ok := artifactOf(c.Payload)
		if !ok {
			return 0, fmt.Errorf("gateway: publish payload must be a registry.Artifact, got %T", c.Payload)
		}
		if _, err := n.reg.Publish(art); err != nil {
			return 0, err
		}
	case OpDemote:
		id, err := registry.ParseID(c.Target)
		if err != nil {
			return 0, err
		}
		n.reg.Demote(id)
	case OpRollback:
		if _, err := n.reg.Rollback(c.Target); err != nil {
			return 0, err
		}
	}
	return n.reg.Snapshot().Seq(), nil
}

func artifactOf(payload any) (registry.Artifact, bool) {
	switch a := payload.(type) {
	case registry.Artifact:
		return a, true
	case *registry.Artifact:
		if a != nil {
			return *a, true
		}
	}
	return registry.Artifact{}, false
}
