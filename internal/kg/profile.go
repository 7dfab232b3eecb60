package kg

import (
	"fmt"

	"itask/internal/scene"
)

// AttrProfile is a soft attribute signature: per attribute family, a weight
// for each possible value. Weights live in [0,1]; an empty family means the
// task expressed no constraint on it.
type AttrProfile struct {
	Shape   map[scene.Shape]float64
	Color   map[scene.Color]float64
	Texture map[scene.Texture]float64
	Size    map[scene.SizeClass]float64
}

// NewAttrProfile returns an empty profile.
func NewAttrProfile() AttrProfile {
	return AttrProfile{
		Shape:   map[scene.Shape]float64{},
		Color:   map[scene.Color]float64{},
		Texture: map[scene.Texture]float64{},
		Size:    map[scene.SizeClass]float64{},
	}
}

// attrNodeID builds the canonical node ID for an attribute value, e.g.
// "attr:color:red".
func attrNodeID(family, value string) string {
	return "attr:" + family + ":" + value
}

// AddAttrValue inserts the attribute node for (family, value) into g and
// returns its ID. Unknown families or values panic: the lexicon and the
// renderer share one vocabulary, so a miss is a programming error.
func AddAttrValue(g *Graph, family, value string) string {
	switch family {
	case "shape":
		if _, ok := scene.ShapeFromName(value); !ok {
			panic(fmt.Sprintf("kg: unknown shape %q", value))
		}
	case "color":
		if _, ok := scene.ColorFromName(value); !ok {
			panic(fmt.Sprintf("kg: unknown color %q", value))
		}
	case "texture":
		if _, ok := scene.TextureFromName(value); !ok {
			panic(fmt.Sprintf("kg: unknown texture %q", value))
		}
	case "size":
		if _, ok := scene.SizeFromName(value); !ok {
			panic(fmt.Sprintf("kg: unknown size %q", value))
		}
	default:
		panic(fmt.Sprintf("kg: unknown attribute family %q", family))
	}
	id := attrNodeID(family, value)
	g.AddNode(id, AttrNode, value)
	return id
}

// ConceptProfile reads the attribute edges of a concept node into a soft
// profile.
func ConceptProfile(g *Graph, conceptID string) AttrProfile {
	p := NewAttrProfile()
	for _, rel := range AttrRelations() {
		for _, e := range g.Out(conceptID, rel) {
			n, ok := g.Node(e.To)
			if !ok {
				continue
			}
			switch rel {
			case HasShape:
				if s, ok := scene.ShapeFromName(n.Label); ok && e.Weight > p.Shape[s] {
					p.Shape[s] = e.Weight
				}
			case HasColor:
				if c, ok := scene.ColorFromName(n.Label); ok && e.Weight > p.Color[c] {
					p.Color[c] = e.Weight
				}
			case HasTexture:
				if x, ok := scene.TextureFromName(n.Label); ok && e.Weight > p.Texture[x] {
					p.Texture[x] = e.Weight
				}
			case HasSize:
				if s, ok := scene.SizeFromName(n.Label); ok && e.Weight > p.Size[s] {
					p.Size[s] = e.Weight
				}
			}
		}
	}
	return p
}

// Match scores how well a concrete class profile satisfies this soft
// profile. Each constrained family contributes its weight for the class's
// value, averaged over constrained families; an unconstrained family is
// neutral (contributes nothing). Result is in [0,1].
func (p AttrProfile) Match(cp scene.Profile) float64 {
	var sum float64
	var families int
	if len(p.Shape) > 0 {
		sum += p.Shape[cp.Shape]
		families++
	}
	if len(p.Color) > 0 {
		sum += p.Color[cp.Color]
		families++
	}
	if len(p.Texture) > 0 {
		sum += p.Texture[cp.Texture]
		families++
	}
	if len(p.Size) > 0 {
		sum += p.Size[cp.Size]
		families++
	}
	if families == 0 {
		return 0
	}
	return sum / float64(families)
}

// ClassPriors computes, for a task node, the relevance of every global class
// in [0,1]: the best Match over the task's target concepts, zeroed for
// concepts the task explicitly avoids more strongly than it targets.
func ClassPriors(g *Graph, taskID string) []float64 {
	priors := make([]float64, scene.NumClasses)
	targets := g.TargetConcepts(taskID)
	var avoid []AttrProfile
	for _, e := range g.Out(taskID, Avoids) {
		avoid = append(avoid, ConceptProfile(g, e.To))
	}
	for _, conceptID := range targets {
		cp := ConceptProfile(g, conceptID)
		for c := scene.ClassID(0); c < scene.NumClasses; c++ {
			m := cp.Match(c.Profile())
			if m > priors[c] {
				priors[c] = m
			}
		}
	}
	for _, ap := range avoid {
		for c := scene.ClassID(0); c < scene.NumClasses; c++ {
			if ap.Match(c.Profile()) > priors[c] {
				priors[c] = 0
			}
		}
	}
	return priors
}

// RelevantClasses returns the classes whose prior meets threshold, strongest
// first.
func RelevantClasses(g *Graph, taskID string, threshold float64) []scene.ClassID {
	priors := ClassPriors(g, taskID)
	type scored struct {
		c scene.ClassID
		p float64
	}
	var keep []scored
	for c := scene.ClassID(0); c < scene.NumClasses; c++ {
		if priors[c] >= threshold {
			keep = append(keep, scored{c, priors[c]})
		}
	}
	// Stable order: descending prior, then class ID.
	for i := 1; i < len(keep); i++ {
		for j := i; j > 0 && (keep[j].p > keep[j-1].p || (keep[j].p == keep[j-1].p && keep[j].c < keep[j-1].c)); j-- {
			keep[j], keep[j-1] = keep[j-1], keep[j]
		}
	}
	out := make([]scene.ClassID, len(keep))
	for i, k := range keep {
		out[i] = k.c
	}
	return out
}
