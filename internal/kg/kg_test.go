package kg

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"itask/internal/scene"
)

// buildTestGraph constructs a small task graph by hand: a patrol task that
// targets a "vehicle" concept (square, blue/gray, medium/large) and avoids a
// "vegetation" concept (green).
func buildTestGraph() *Graph {
	g := New()
	g.AddNode("task:patrol", TaskNode, "patrol")
	g.AddNode("concept:vehicle", ConceptNode, "vehicle")
	g.AddNode("concept:vegetation", ConceptNode, "vegetation")
	g.AddEdge("task:patrol", "concept:vehicle", Targets, 1.0)
	g.AddEdge("task:patrol", "concept:vegetation", Avoids, 0.9)

	shape := AddAttrValue(g, "shape", "square")
	blue := AddAttrValue(g, "color", "blue")
	gray := AddAttrValue(g, "color", "gray")
	med := AddAttrValue(g, "size", "medium")
	large := AddAttrValue(g, "size", "large")
	g.AddEdge("concept:vehicle", shape, HasShape, 0.95)
	g.AddEdge("concept:vehicle", blue, HasColor, 0.8)
	g.AddEdge("concept:vehicle", gray, HasColor, 0.7)
	g.AddEdge("concept:vehicle", med, HasSize, 0.6)
	g.AddEdge("concept:vehicle", large, HasSize, 0.6)

	green := AddAttrValue(g, "color", "green")
	g.AddEdge("concept:vegetation", green, HasColor, 0.9)
	return g
}

func TestAddNodeAndEdgeBasics(t *testing.T) {
	g := New()
	g.AddNode("a", TaskNode, "A")
	g.AddNode("b", ConceptNode, "B")
	g.AddEdge("a", "b", Targets, 0.5)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	// Idempotent edge insert keeps max weight.
	g.AddEdge("a", "b", Targets, 0.3)
	if g.NumEdges() != 1 || g.Edges()[0].Weight != 0.5 {
		t.Error("lower re-insert should not change edge")
	}
	g.AddEdge("a", "b", Targets, 0.8)
	if g.Edges()[0].Weight != 0.8 {
		t.Error("higher re-insert should raise weight")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	g.AddNode("a", TaskNode, "A")
	for name, f := range map[string]func(){
		"unknown from": func() { g.AddEdge("x", "a", Targets, 0.5) },
		"unknown to":   func() { g.AddEdge("a", "x", Targets, 0.5) },
		"bad weight":   func() { g.AddNode("b", ConceptNode, "B"); g.AddEdge("a", "b", Targets, 1.5) },
		"empty id":     func() { g.AddNode("", TaskNode, "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestKindConflictPanics(t *testing.T) {
	g := New()
	g.AddNode("n", TaskNode, "N")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	g.AddNode("n", ConceptNode, "N")
}

func TestOutSortedByWeight(t *testing.T) {
	g := buildTestGraph()
	colors := g.Out("concept:vehicle", HasColor)
	if len(colors) != 2 {
		t.Fatalf("got %d color edges", len(colors))
	}
	if colors[0].Weight < colors[1].Weight {
		t.Error("Out should sort by descending weight")
	}
}

func TestMergeIdempotent(t *testing.T) {
	a := buildTestGraph()
	b := buildTestGraph()
	a.Merge(b)
	n1, e1 := a.NumNodes(), a.NumEdges()
	a.Merge(b)
	if a.NumNodes() != n1 || a.NumEdges() != e1 {
		t.Error("merge is not idempotent")
	}
}

func TestMergeUnion(t *testing.T) {
	a := buildTestGraph()
	b := New()
	b.AddNode("task:other", TaskNode, "other")
	b.AddNode("concept:thing", ConceptNode, "thing")
	b.AddEdge("task:other", "concept:thing", Targets, 0.4)
	before := a.NumNodes()
	a.Merge(b)
	if a.NumNodes() != before+2 {
		t.Errorf("merge should add 2 nodes, got %d -> %d", before, a.NumNodes())
	}
}

func TestPrune(t *testing.T) {
	g := buildTestGraph()
	// Add a weak edge to a throwaway concept.
	g.AddNode("concept:weak", ConceptNode, "weak")
	g.AddEdge("task:patrol", "concept:weak", Targets, 0.05)
	g.Prune(0.3)
	if _, ok := g.Node("concept:weak"); ok {
		t.Error("weak concept should be pruned")
	}
	if _, ok := g.Node("concept:vehicle"); !ok {
		t.Error("strong concept should survive")
	}
	if _, ok := g.Node("task:patrol"); !ok {
		t.Error("task nodes must survive pruning")
	}
	for _, e := range g.Edges() {
		if e.Weight < 0.3 {
			t.Errorf("edge %+v survived pruning", e)
		}
	}
}

func TestTasksAndTargets(t *testing.T) {
	g := buildTestGraph()
	tasks := g.Tasks()
	if len(tasks) != 1 || tasks[0] != "task:patrol" {
		t.Fatalf("tasks = %v", tasks)
	}
	targets := g.TargetConcepts("task:patrol")
	if len(targets) != 1 || targets[0] != "concept:vehicle" {
		t.Fatalf("targets = %v", targets)
	}
}

func TestConceptProfile(t *testing.T) {
	g := buildTestGraph()
	p := ConceptProfile(g, "concept:vehicle")
	if p.Shape[scene.Square] != 0.95 {
		t.Errorf("shape weight = %v", p.Shape[scene.Square])
	}
	if p.Color[scene.Blue] != 0.8 || p.Color[scene.Gray] != 0.7 {
		t.Errorf("color weights = %v", p.Color)
	}
	if len(p.Texture) != 0 {
		t.Error("texture should be unconstrained")
	}
}

func TestProfileMatch(t *testing.T) {
	g := buildTestGraph()
	p := ConceptProfile(g, "concept:vehicle")
	// Car: square blue medium -> (0.95 + 0.8 + 0.6)/3
	carScore := p.Match(scene.Car.Profile())
	want := (0.95 + 0.8 + 0.6) / 3
	if math.Abs(carScore-want) > 1e-9 {
		t.Errorf("car match = %v, want %v", carScore, want)
	}
	// Lesion: disc red small -> 0 on all constrained families.
	if s := p.Match(scene.Lesion.Profile()); s != 0 {
		t.Errorf("lesion match = %v, want 0", s)
	}
	// Truck (square gray large) should also score high.
	if p.Match(scene.Truck.Profile()) < 0.7 {
		t.Errorf("truck match too low: %v", p.Match(scene.Truck.Profile()))
	}
	// Empty profile matches nothing.
	if NewAttrProfile().Match(scene.Car.Profile()) != 0 {
		t.Error("empty profile should match 0")
	}
}

func TestClassPriors(t *testing.T) {
	g := buildTestGraph()
	priors := ClassPriors(g, "task:patrol")
	if len(priors) != int(scene.NumClasses) {
		t.Fatalf("priors length %d", len(priors))
	}
	if priors[scene.Car] <= priors[scene.Lesion] {
		t.Error("car should outrank lesion for a vehicle task")
	}
	if priors[scene.Car] <= priors[scene.Pedestrian] {
		t.Error("car should outrank pedestrian (triangle orange)")
	}
	// Avoided green concepts zero out green classes.
	if priors[scene.UnripeFruit] != 0 {
		t.Errorf("green class prior = %v, want 0 (avoided)", priors[scene.UnripeFruit])
	}
	for c, p := range priors {
		if p < 0 || p > 1 {
			t.Errorf("prior[%d] = %v outside [0,1]", c, p)
		}
	}
}

func TestRelevantClasses(t *testing.T) {
	g := buildTestGraph()
	rel := RelevantClasses(g, "task:patrol", 0.6)
	if len(rel) == 0 {
		t.Fatal("no relevant classes")
	}
	// All returned classes meet the threshold and are sorted descending.
	priors := ClassPriors(g, "task:patrol")
	prev := 2.0
	for _, c := range rel {
		if priors[c] < 0.6 {
			t.Errorf("class %v below threshold", c)
		}
		if priors[c] > prev {
			t.Error("not sorted by descending prior")
		}
		prev = priors[c]
	}
	// Car and truck must be in there.
	found := map[scene.ClassID]bool{}
	for _, c := range rel {
		found[c] = true
	}
	if !found[scene.Car] || !found[scene.Truck] {
		t.Errorf("vehicle classes missing from %v", rel)
	}
}

func TestAddAttrValueValidation(t *testing.T) {
	g := New()
	for _, bad := range [][2]string{
		{"shape", "hexagon"},
		{"color", "mauve"},
		{"texture", "fuzzy"},
		{"size", "gigantic"},
		{"weight", "heavy"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddAttrValue(%q,%q) should panic", bad[0], bad[1])
				}
			}()
			AddAttrValue(g, bad[0], bad[1])
		}()
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildTestGraph()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost content: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	// Priors must be identical after a round trip.
	p1 := ClassPriors(g, "task:patrol")
	p2 := ClassPriors(g2, "task:patrol")
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("prior %d changed after round trip", i)
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	for name, doc := range map[string]string{
		"dangling edge": `{"nodes":[{"id":"a","kind":0,"label":"a"}],"edges":[{"from":"a","to":"x","rel":"targets","weight":0.5}]}`,
		"bad weight":    `{"nodes":[{"id":"a","kind":0,"label":"a"},{"id":"b","kind":1,"label":"b"}],"edges":[{"from":"a","to":"b","rel":"targets","weight":2}]}`,
		"empty id":      `{"nodes":[{"id":"","kind":0,"label":""}],"edges":[]}`,
		"not json":      `{{{`,
	} {
		if _, err := Read(bytes.NewReader([]byte(doc))); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildTestGraph()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph itask_kg", "doubleoctagon", // task node shape
		"shape=box",      // concept shape
		"style=dashed",   // avoids edge
		"ntask_patrol",   // sanitized id
		`"targets 1.00"`, // edge label
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Deterministic.
	var buf2 bytes.Buffer
	if err := g.WriteDOT(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("DOT output not deterministic")
	}
}

func TestDeterministicSerialization(t *testing.T) {
	g := buildTestGraph()
	a, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("serialization not deterministic")
	}
}
