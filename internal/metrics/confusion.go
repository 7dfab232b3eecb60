package metrics

import (
	"sort"

	"itask/internal/geom"
)

// Confusion is a detection confusion matrix over a class vocabulary:
// Counts[gt][pred] counts ground-truth objects of class gt matched (by IoU,
// class-agnostic) to a detection of class pred. Two synthetic indices
// complete the bookkeeping: missed ground truths and background false
// positives.
type Confusion struct {
	// Classes is the vocabulary, in the order rows/columns use.
	Classes []int
	// Counts[gt][pred] over len(Classes) real classes.
	Counts [][]int
	// Missed[gt] counts ground truths with no matching detection.
	Missed []int
	// Ghost[pred] counts detections matching no ground truth.
	Ghost []int

	index map[int]int
}

// NewConfusion creates an empty matrix over the given classes.
func NewConfusion(classes []int) *Confusion {
	c := &Confusion{
		Classes: append([]int(nil), classes...),
		Counts:  make([][]int, len(classes)),
		Missed:  make([]int, len(classes)),
		Ghost:   make([]int, len(classes)),
		index:   map[int]int{},
	}
	for i, cls := range classes {
		c.Counts[i] = make([]int, len(classes))
		c.index[cls] = i
	}
	return c
}

// Add folds one image's detections and ground truths into the matrix.
// Matching is greedy best-IoU and deliberately class-AGNOSTIC, so class
// confusions become visible (class-aware matching would file them as
// miss + ghost).
func (c *Confusion) Add(dets []geom.Scored, gts []GroundTruth, iouThresh float64) {
	type cand struct {
		di, gi int
		iou    float64
	}
	var cands []cand
	for di, d := range dets {
		for gi, gt := range gts {
			if iou := geom.IoU(d.Box, gt.Box); iou >= iouThresh {
				cands = append(cands, cand{di, gi, iou})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].iou > cands[j].iou })
	usedD := make([]bool, len(dets))
	usedG := make([]bool, len(gts))
	for _, cd := range cands {
		if usedD[cd.di] || usedG[cd.gi] {
			continue
		}
		usedD[cd.di] = true
		usedG[cd.gi] = true
		gi, ok1 := c.index[gts[cd.gi].Class]
		pi, ok2 := c.index[dets[cd.di].Class]
		if ok1 && ok2 {
			c.Counts[gi][pi]++
		}
	}
	for gi, gt := range gts {
		if !usedG[gi] {
			if idx, ok := c.index[gt.Class]; ok {
				c.Missed[idx]++
			}
		}
	}
	for di, d := range dets {
		if !usedD[di] {
			if idx, ok := c.index[d.Class]; ok {
				c.Ghost[idx]++
			}
		}
	}
}

// Accuracy returns the trace ratio: correctly classified matches over all
// ground truths (missed included).
func (c *Confusion) Accuracy() float64 {
	var correct, total int
	for i := range c.Classes {
		for j := range c.Classes {
			total += c.Counts[i][j]
			if i == j {
				correct += c.Counts[i][j]
			}
		}
		total += c.Missed[i]
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
