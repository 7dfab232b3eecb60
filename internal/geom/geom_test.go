package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBoxEdgesAndArea(t *testing.T) {
	b := Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.4}
	if math.Abs(b.Left()-0.4) > 1e-12 || math.Abs(b.Right()-0.6) > 1e-12 {
		t.Errorf("horizontal edges wrong: %v %v", b.Left(), b.Right())
	}
	if math.Abs(b.Top()-0.3) > 1e-12 || math.Abs(b.Bottom()-0.7) > 1e-12 {
		t.Errorf("vertical edges wrong: %v %v", b.Top(), b.Bottom())
	}
	if math.Abs(b.Area()-0.08) > 1e-12 {
		t.Errorf("area = %v", b.Area())
	}
	if (Box{W: -1, H: 1}).Area() != 0 {
		t.Error("degenerate box should have zero area")
	}
}

func TestIoUIdentityAndDisjoint(t *testing.T) {
	a := Box{X: 0.3, Y: 0.3, W: 0.2, H: 0.2}
	if got := IoU(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("IoU(a,a) = %v, want 1", got)
	}
	b := Box{X: 0.8, Y: 0.8, W: 0.2, H: 0.2}
	if got := IoU(a, b); got != 0 {
		t.Errorf("IoU disjoint = %v, want 0", got)
	}
}

func TestIoUKnownValue(t *testing.T) {
	// Two unit-half boxes overlapping by half horizontally.
	a := Box{X: 0.25, Y: 0.5, W: 0.5, H: 1.0}
	b := Box{X: 0.5, Y: 0.5, W: 0.5, H: 1.0}
	// intersection = 0.25*1, union = 0.5+0.5-0.25 = 0.75
	if got := IoU(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("IoU = %v, want 1/3", got)
	}
}

func TestIoUProperties(t *testing.T) {
	f := func(x1, y1, w1, h1, x2, y2, w2, h2 float64) bool {
		a := Box{frac(x1), frac(y1), frac(w1), frac(h1)}
		b := Box{frac(x2), frac(y2), frac(w2), frac(h2)}
		u1, u2 := IoU(a, b), IoU(b, a)
		// Symmetric and in range.
		return math.Abs(u1-u2) < 1e-12 && u1 >= 0 && u1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// frac maps any float into (0,1) deterministically.
func frac(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	v = math.Abs(v)
	return v - math.Floor(v) + 0.001
}

func TestClip(t *testing.T) {
	b := Box{X: 0.05, Y: 0.5, W: 0.3, H: 0.2} // sticks out left
	c := b.Clip()
	if c.Left() < -1e-12 {
		t.Errorf("clipped box extends past 0: %v", c.Left())
	}
	if math.Abs(c.Right()-b.Right()) > 1e-12 {
		t.Errorf("right edge should be unchanged")
	}
	// Fully inside: unchanged.
	in := Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}
	got := in.Clip()
	if math.Abs(got.X-in.X) > 1e-12 || math.Abs(got.W-in.W) > 1e-12 {
		t.Error("interior box modified by Clip")
	}
}

func TestNMSSuppressesSameClassOverlaps(t *testing.T) {
	dets := []Scored{
		{Box: Box{0.5, 0.5, 0.2, 0.2}, Class: 0, Score: 0.9},
		{Box: Box{0.51, 0.5, 0.2, 0.2}, Class: 0, Score: 0.8}, // heavy overlap, same class
		{Box: Box{0.51, 0.5, 0.2, 0.2}, Class: 1, Score: 0.7}, // heavy overlap, other class
		{Box: Box{0.1, 0.1, 0.1, 0.1}, Class: 0, Score: 0.6},  // disjoint
	}
	kept := NMS(dets, 0.5)
	if len(kept) != 3 {
		t.Fatalf("kept %d detections, want 3: %+v", len(kept), kept)
	}
	if kept[0].Score != 0.9 {
		t.Error("NMS must keep the highest-score detection first")
	}
	for _, k := range kept {
		if k.Score == 0.8 {
			t.Error("overlapping same-class detection should be suppressed")
		}
	}
}

func TestNMSEmptyAndSingle(t *testing.T) {
	if got := NMS(nil, 0.5); len(got) != 0 {
		t.Error("NMS(nil) should be empty")
	}
	one := []Scored{{Box: Box{0.5, 0.5, 0.1, 0.1}, Score: 0.5}}
	if got := NMS(one, 0.5); len(got) != 1 {
		t.Error("single detection must survive")
	}
}

func TestNMSDoesNotMutateInput(t *testing.T) {
	dets := []Scored{
		{Box: Box{0.5, 0.5, 0.2, 0.2}, Score: 0.1},
		{Box: Box{0.2, 0.2, 0.2, 0.2}, Score: 0.9},
	}
	NMS(dets, 0.5)
	if dets[0].Score != 0.1 {
		t.Error("NMS reordered the caller's slice")
	}
}

func TestIntersectionCommutes(t *testing.T) {
	a := Box{0.4, 0.4, 0.3, 0.3}
	b := Box{0.5, 0.5, 0.3, 0.3}
	if Intersection(a, b) != Intersection(b, a) {
		t.Error("Intersection not symmetric")
	}
	if Intersection(a, b) <= 0 {
		t.Error("expected positive overlap")
	}
}
