package kg

import (
	"fmt"
	"testing"
	"testing/quick"

	"itask/internal/scene"
	"itask/internal/tensor"
)

// randomGraph builds a small random-but-valid task graph.
func randomGraph(rng *tensor.RNG) *Graph {
	g := New()
	taskID := fmt.Sprintf("task:t%d", rng.Intn(3))
	g.AddNode(taskID, TaskNode, "t")
	nConcepts := rng.Intn(3) + 1
	shapes := []string{"disc", "square", "triangle", "cross", "ring", "diamond"}
	colors := []string{"red", "green", "blue", "gray", "white"}
	for i := 0; i < nConcepts; i++ {
		cid := fmt.Sprintf("concept:c%d", rng.Intn(4))
		g.AddNode(cid, ConceptNode, "c")
		rel := Targets
		if rng.Bool(0.3) {
			rel = Avoids
		}
		g.AddEdge(taskID, cid, rel, 0.1+0.9*rng.Float64())
		if rng.Bool(0.8) {
			id := AddAttrValue(g, "shape", shapes[rng.Intn(len(shapes))])
			g.AddEdge(cid, id, HasShape, 0.1+0.9*rng.Float64())
		}
		if rng.Bool(0.8) {
			id := AddAttrValue(g, "color", colors[rng.Intn(len(colors))])
			g.AddEdge(cid, id, HasColor, 0.1+0.9*rng.Float64())
		}
	}
	return g
}

// TestPriorsInRangeProperty: class priors of any random graph stay in [0,1]
// and are deterministic.
func TestPriorsInRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(tensor.NewRNG(seed))
		for _, taskID := range g.Tasks() {
			p1 := ClassPriors(g, taskID)
			p2 := ClassPriors(g, taskID)
			if len(p1) != int(scene.NumClasses) {
				return false
			}
			for i := range p1 {
				if p1[i] < 0 || p1[i] > 1 || p1[i] != p2[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPruneIdempotentProperty: pruning twice equals pruning once.
func TestPruneIdempotentProperty(t *testing.T) {
	f := func(seed uint64, thSel uint8) bool {
		th := float64(thSel%10) / 10
		g1 := randomGraph(tensor.NewRNG(seed))
		g2 := randomGraph(tensor.NewRNG(seed))
		g1.Prune(th)
		g2.Prune(th)
		g2.Prune(th)
		j1, _ := g1.MarshalJSON()
		j2, _ := g2.MarshalJSON()
		return string(j1) == string(j2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRoundTripPreservesPriorsProperty: JSON round trip never changes the
// derived priors.
func TestRoundTripPreservesPriorsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(tensor.NewRNG(seed))
		data, err := g.MarshalJSON()
		if err != nil {
			return false
		}
		g2 := New()
		if err := g2.UnmarshalJSON(data); err != nil {
			return false
		}
		for _, taskID := range g.Tasks() {
			p1 := ClassPriors(g, taskID)
			p2 := ClassPriors(g2, taskID)
			for i := range p1 {
				if p1[i] != p2[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
