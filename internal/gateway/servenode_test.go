package gateway_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"itask/internal/gateway"
	"itask/internal/geom"
	"itask/internal/registry"
	"itask/internal/serve"
	"itask/internal/tensor"
)

// regBackend is a minimal serve.Backend routing through a real versioned
// registry, so ServeNode's Publish drives actual registry publishes and
// the serve layer's epoch-memoized routing.
type regBackend struct{ reg *registry.Registry }

func (b *regBackend) Route(task string) (string, error) {
	snap := b.reg.Snapshot()
	if a, ok := snap.ForTask(task); ok {
		return a.ID.String(), nil
	}
	if a, ok := snap.Generalist(); ok {
		return a.ID.String(), nil
	}
	return "", fmt.Errorf("no artifact for task %q", task)
}

func (b *regBackend) RouteEpoch() uint64 { return b.reg.Snapshot().Seq() }

func (b *regBackend) DetectBatch(variant, _ string, imgs []*tensor.Tensor) ([]any, string, error) {
	out := make([]any, len(imgs))
	for i := range out {
		out[i] = i
	}
	return out, variant, nil
}

func studentArtifact() registry.Artifact {
	return registry.Artifact{
		Name:      "patrol-student",
		Kind:      registry.TaskSpecific,
		Task:      "patrol",
		Bytes:     1 << 20,
		LatencyUS: 500,
		Detect: func(imgs []*tensor.Tensor) [][]geom.Scored {
			return make([][]geom.Scored, len(imgs))
		},
	}
}

// A real in-process fleet: three serve.Servers, each with its own versioned
// registry, behind one gateway. Propagated publishes drive every shard's
// registry in lock-step, and detection results pin the exact cluster-wide
// version at every step.
func TestServeNodeClusterPublish(t *testing.T) {
	const n = 3
	ctx := context.Background()
	g := newTestGateway(t, passiveConfig())
	for i := 0; i < n; i++ {
		reg := registry.New()
		if _, err := reg.Publish(studentArtifact()); err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(&regBackend{reg}, serve.Config{
			Workers: 1, QueueCap: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		})
		node, err := gateway.NewServeNode(fmt.Sprintf("shard-%d", i), srv, reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddNode(node); err != nil {
			t.Fatal(err)
		}
	}

	versionOf := func(i int) string {
		t.Helper()
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: img(i)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Model
	}
	for i := 0; i < 30; i++ {
		if v := versionOf(i); !strings.Contains(v, "@v1") {
			t.Fatalf("pre-publish model = %s, want @v1", v)
		}
	}

	// Publish v2 fleet-wide. Artifact fields are identical on every shard,
	// so every registry assigns the same id and the fleet stays uniform.
	ep, err := g.Propagate(ctx, studentArtifact())
	if err != nil {
		t.Fatalf("Propagate(publish): %v", err)
	}
	if g.CommittedEpoch() != ep || ep == 0 {
		t.Fatalf("committed epoch = %d/%d", ep, g.CommittedEpoch())
	}
	var v2 string
	for i := 0; i < 30; i++ {
		v := versionOf(i)
		if !strings.Contains(v, "@v2") {
			t.Fatalf("post-publish model = %s, want @v2", v)
		}
		if v2 == "" {
			v2 = v
		} else if v != v2 {
			t.Fatalf("fleet disagrees on v2 id: %s vs %s", v, v2)
		}
	}

	// A publish without a payload is refused at the gateway, and one whose
	// payload is not an artifact by every shard: neither commits an epoch
	// or disturbs routing.
	if _, err := g.Propagate(ctx, nil); err == nil {
		t.Fatal("a publish without a payload must be refused")
	}
	if ep2, err := g.Propagate(ctx, "patrol-student"); err == nil || ep2 != 0 {
		t.Fatalf("Propagate(non-artifact) = (%d, %v), want (0, error)", ep2, err)
	}
	if g.CommittedEpoch() != ep {
		t.Fatalf("refused publishes moved the committed epoch %d → %d", ep, g.CommittedEpoch())
	}
	if v := versionOf(0); v != v2 {
		t.Fatalf("routing disturbed by a refused publish: %s, want %s", v, v2)
	}
}
