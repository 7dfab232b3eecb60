// Package geom provides the 2-D box geometry shared by the scene renderer,
// the detection heads, and the evaluation metrics. Coordinates are
// normalized to [0,1] relative to the image, with (X,Y) the box center.
package geom

import "slices"

// Box is an axis-aligned box with normalized center coordinates and size.
type Box struct {
	X, Y float64 // center
	W, H float64 // width, height
}

// Left returns the left edge.
func (b Box) Left() float64 { return b.X - b.W/2 }

// Right returns the right edge.
func (b Box) Right() float64 { return b.X + b.W/2 }

// Top returns the top edge.
func (b Box) Top() float64 { return b.Y - b.H/2 }

// Bottom returns the bottom edge.
func (b Box) Bottom() float64 { return b.Y + b.H/2 }

// Area returns the box area (0 for degenerate boxes).
func (b Box) Area() float64 {
	if b.W <= 0 || b.H <= 0 {
		return 0
	}
	return b.W * b.H
}

// Contains reports whether the point (x,y) lies inside the box.
func (b Box) Contains(x, y float64) bool {
	return x >= b.Left() && x <= b.Right() && y >= b.Top() && y <= b.Bottom()
}

// Clip returns the box clipped to the unit square, preserving the
// center/size representation.
func (b Box) Clip() Box {
	l, r := clamp01(b.Left()), clamp01(b.Right())
	t, bo := clamp01(b.Top()), clamp01(b.Bottom())
	return Box{X: (l + r) / 2, Y: (t + bo) / 2, W: r - l, H: bo - t}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Intersection returns the area of overlap between a and b.
func Intersection(a, b Box) float64 {
	w := minF(a.Right(), b.Right()) - maxF(a.Left(), b.Left())
	h := minF(a.Bottom(), b.Bottom()) - maxF(a.Top(), b.Top())
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// IoU returns the intersection-over-union of a and b, in [0,1].
// Two degenerate boxes have IoU 0.
func IoU(a, b Box) float64 {
	inter := Intersection(a, b)
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Scored is a box with a class and confidence, the unit of detector output.
type Scored struct {
	Box   Box
	Class int
	Score float64
}

// NMS performs class-aware greedy non-maximum suppression: detections are
// visited in descending score order (ties keep their input order) and
// dropped if they overlap an already kept detection of the same class by
// more than iouThresh. dets is not modified; the result is a fresh slice.
func NMS(dets []Scored, iouThresh float64) []Scored {
	if len(dets) == 0 {
		return nil
	}
	sorted := slices.Clone(dets)
	slices.SortStableFunc(sorted, func(a, b Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case b.Score > a.Score:
			return 1
		}
		return 0
	})
	// The kept prefix never overtakes the cursor, so keeping in place
	// overwrites only visited detections.
	kept := sorted[:0]
	for _, d := range sorted {
		suppressed := false
		for _, k := range kept {
			if k.Class == d.Class && IoU(k.Box, d.Box) > iouThresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}
