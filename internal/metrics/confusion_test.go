package metrics

import (
	"testing"

	"itask/internal/geom"
)

func TestConfusionPerfect(t *testing.T) {
	c := NewConfusion([]int{0, 1})
	b := geom.Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}
	c.Add(
		[]geom.Scored{{Box: b, Class: 0, Score: 0.9}},
		[]GroundTruth{{Box: b, Class: 0}},
		0.5,
	)
	if c.Counts[0][0] != 1 || c.Accuracy() != 1 {
		t.Errorf("perfect match misrecorded: %+v acc=%v", c.Counts, c.Accuracy())
	}
	if c.Counts[0][1] != 0 || c.Counts[1][0] != 0 {
		t.Errorf("no confusion expected: %+v", c.Counts)
	}
}

func TestConfusionMisclassification(t *testing.T) {
	c := NewConfusion([]int{3, 7})
	b := geom.Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}
	// GT class 3 detected as class 7 at the same location: class-agnostic
	// matching must record it as a confusion, not miss+ghost.
	c.Add(
		[]geom.Scored{{Box: b, Class: 7, Score: 0.9}},
		[]GroundTruth{{Box: b, Class: 3}},
		0.5,
	)
	if c.Counts[0][1] != 1 {
		t.Fatalf("confusion not recorded: %+v", c.Counts)
	}
	if c.Accuracy() != 0 {
		t.Errorf("accuracy = %v, want 0", c.Accuracy())
	}
}

func TestConfusionMissAndGhost(t *testing.T) {
	c := NewConfusion([]int{0})
	c.Add(
		[]geom.Scored{{Box: geom.Box{X: 0.1, Y: 0.1, W: 0.1, H: 0.1}, Class: 0, Score: 0.9}},
		[]GroundTruth{{Box: geom.Box{X: 0.8, Y: 0.8, W: 0.1, H: 0.1}, Class: 0}},
		0.5,
	)
	if c.Missed[0] != 1 || c.Ghost[0] != 1 {
		t.Errorf("miss/ghost = %d/%d, want 1/1", c.Missed[0], c.Ghost[0])
	}
}

func TestConfusionEmptyAccuracy(t *testing.T) {
	c := NewConfusion([]int{0})
	if c.Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
}
