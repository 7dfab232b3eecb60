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
// detection, health and route-epoch reads, and fleet-wide publishes.

// ServeNode adapts an in-process serve.Server (plus optional registry) to
// the gateway's Node interfaces.
type ServeNode struct {
	id  string
	srv *serve.Server
	reg *registry.Registry // nil: detect/probe only
}

// NewServeNode wraps a serve.Server shard. reg may be nil for shards
// without a versioned registry; such nodes serve detection and probes but
// refuse publishes and report no route epoch.
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

// Health implements HealthNode: a draining shard is down (its keys should
// rehash before it finishes draining), anything else is alive; a shard with
// a registry reports its snapshot's content identity as its route epoch.
func (n *ServeNode) Health(context.Context) (epoch uint64, hasEpoch bool, down error) {
	if n.srv.Draining() {
		down = serve.ErrShuttingDown
	}
	if n.reg == nil {
		return 0, false, down
	}
	return n.reg.Snapshot().Identity(), true, down
}

// Publish implements ChangeApplier: publish the registry.Artifact payload
// and return the content identity the registry then serves.
func (n *ServeNode) Publish(_ context.Context, payload any) (uint64, error) {
	if n.reg == nil {
		return 0, fmt.Errorf("%w: %s has no registry", ErrUnsupportedChange, n.id)
	}
	art, ok := payload.(registry.Artifact)
	if !ok {
		return 0, fmt.Errorf("gateway: publish payload must be a registry.Artifact, got %T", payload)
	}
	if _, err := n.reg.Publish(art); err != nil {
		return 0, err
	}
	return n.reg.Snapshot().Identity(), nil
}
