// Package kg implements the abstract knowledge graph at the core of iTask.
// The simulated LLM (internal/llm) converts a natural-language mission
// description into this graph; the detection pipeline then derives class
// priors and attribute prototypes from it, letting the detector identify
// objects by high-level characteristics rather than per-class training data.
package kg

import (
	"fmt"
	"sort"
)

// NodeKind distinguishes the three node types of an iTask graph.
type NodeKind int

// Node kinds: a task (mission root), a concept (an abstract object category
// the task cares about), and an attribute value.
const (
	TaskNode NodeKind = iota
	ConceptNode
	AttrNode
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case TaskNode:
		return "task"
	case ConceptNode:
		return "concept"
	case AttrNode:
		return "attr"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Relation is the typed label on an edge.
type Relation string

// The relation vocabulary. Targets links a task to a concept; Avoid marks
// concepts the task must NOT flag; the Has* relations attach attribute
// values to concepts.
const (
	Targets    Relation = "targets"
	Avoids     Relation = "avoids"
	HasShape   Relation = "has_shape"
	HasColor   Relation = "has_color"
	HasTexture Relation = "has_texture"
	HasSize    Relation = "has_size"
)

// AttrRelations lists the attribute-family relations in canonical order.
func AttrRelations() []Relation {
	return []Relation{HasShape, HasColor, HasTexture, HasSize}
}

// Node is a graph vertex.
type Node struct {
	ID    string   `json:"id"`
	Kind  NodeKind `json:"kind"`
	Label string   `json:"label"`
}

// Edge is a weighted, typed, directed edge.
type Edge struct {
	From   string   `json:"from"`
	To     string   `json:"to"`
	Rel    Relation `json:"rel"`
	Weight float64  `json:"weight"`
}

// Graph is a small property graph with idempotent insertion: re-adding an
// edge keeps the maximum weight seen, so merging evidence from repeated LLM
// passes can only strengthen, never flicker.
type Graph struct {
	nodes map[string]Node
	// edges indexed by from-node for traversal.
	out map[string][]Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: map[string]Node{}, out: map[string][]Edge{}}
}

// AddNode inserts or updates a node. Updating with a different kind panics:
// node identity is structural, and a kind flip is always a generator bug.
func (g *Graph) AddNode(id string, kind NodeKind, label string) {
	if id == "" {
		panic("kg: empty node id")
	}
	if prev, ok := g.nodes[id]; ok && prev.Kind != kind {
		panic(fmt.Sprintf("kg: node %q kind conflict %v vs %v", id, prev.Kind, kind))
	}
	g.nodes[id] = Node{ID: id, Kind: kind, Label: label}
}

// AddEdge inserts a directed edge, creating a stronger weight if the edge
// already exists. Both endpoints must already be nodes.
func (g *Graph) AddEdge(from, to string, rel Relation, weight float64) {
	if _, ok := g.nodes[from]; !ok {
		panic(fmt.Sprintf("kg: edge from unknown node %q", from))
	}
	if _, ok := g.nodes[to]; !ok {
		panic(fmt.Sprintf("kg: edge to unknown node %q", to))
	}
	if weight < 0 || weight > 1 {
		panic(fmt.Sprintf("kg: edge weight %v outside [0,1]", weight))
	}
	for i, e := range g.out[from] {
		if e.To == to && e.Rel == rel {
			if weight > e.Weight {
				g.out[from][i].Weight = weight
			}
			return
		}
	}
	g.out[from] = append(g.out[from], Edge{From: from, To: to, Rel: rel, Weight: weight})
}

// Node returns the node with the given id.
func (g *Graph) Node(id string) (Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Nodes returns all nodes sorted by ID for deterministic iteration.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Edges returns all edges sorted (from, rel, to) for deterministic iteration.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, es := range g.out {
		out = append(out, es...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Rel != b.Rel {
			return a.Rel < b.Rel
		}
		return a.To < b.To
	})
	return out
}

// Out returns the outgoing edges of a node with the given relation,
// sorted by descending weight (ties broken by target id).
func (g *Graph) Out(from string, rel Relation) []Edge {
	var out []Edge
	for _, e := range g.out[from] {
		if e.Rel == rel {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].To < out[j].To
	})
	return out
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// Prune removes edges below minWeight and then drops nodes with no
// remaining edges in either direction (except task nodes, which anchor the
// graph).
func (g *Graph) Prune(minWeight float64) {
	referenced := map[string]bool{}
	for from, es := range g.out {
		kept := es[:0]
		for _, e := range es {
			if e.Weight >= minWeight {
				kept = append(kept, e)
				referenced[e.From] = true
				referenced[e.To] = true
			}
		}
		if len(kept) == 0 {
			delete(g.out, from)
		} else {
			g.out[from] = kept
		}
	}
	for id, n := range g.nodes {
		if n.Kind != TaskNode && !referenced[id] {
			delete(g.nodes, id)
		}
	}
}

// Tasks returns the IDs of all task nodes, sorted.
func (g *Graph) Tasks() []string {
	var out []string
	for id, n := range g.nodes {
		if n.Kind == TaskNode {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// TargetConcepts returns the concept IDs a task targets, strongest first.
func (g *Graph) TargetConcepts(taskID string) []string {
	var out []string
	for _, e := range g.Out(taskID, Targets) {
		out = append(out, e.To)
	}
	return out
}
