package scene

import (
	"testing"

	"itask/internal/geom"
	"itask/internal/tensor"
)

func TestAttributeNameRoundTrips(t *testing.T) {
	for s := Shape(0); s < numShapes; s++ {
		got, ok := ShapeFromName(s.String())
		if !ok || got != s {
			t.Errorf("shape %v does not round-trip", s)
		}
	}
	for c := Color(0); c < numColors; c++ {
		got, ok := ColorFromName(c.String())
		if !ok || got != c {
			t.Errorf("color %v does not round-trip", c)
		}
	}
	for x := Texture(0); x < numTextures; x++ {
		got, ok := TextureFromName(x.String())
		if !ok || got != x {
			t.Errorf("texture %v does not round-trip", x)
		}
	}
	for s := SizeClass(0); s < numSizes; s++ {
		got, ok := SizeFromName(s.String())
		if !ok || got != s {
			t.Errorf("size %v does not round-trip", s)
		}
	}
	if _, ok := ShapeFromName("hexagon"); ok {
		t.Error("unknown shape name should fail")
	}
}

func TestColorRGBInRange(t *testing.T) {
	for c := Color(0); c < numColors; c++ {
		rgb := c.RGB()
		for ch, v := range rgb {
			if v < 0 || v > 1 {
				t.Errorf("color %v channel %d = %v", c, ch, v)
			}
		}
	}
}

func TestSizeRangesOrderedAndDisjoint(t *testing.T) {
	prevHi := 0.0
	for s := SizeClass(0); s < numSizes; s++ {
		lo, hi := s.Range()
		if lo >= hi {
			t.Errorf("size %v has empty range", s)
		}
		if lo < prevHi {
			t.Errorf("size %v range overlaps previous", s)
		}
		prevHi = hi
	}
}

func TestClassTableComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := ClassID(0); c < NumClasses; c++ {
		name := c.Name()
		if name == "" || seen[name] {
			t.Errorf("class %d has bad/duplicate name %q", c, name)
		}
		seen[name] = true
		c.Profile() // must not panic
	}
}

func TestClassProfilesDistinct(t *testing.T) {
	// No two classes may share a full attribute profile, or they would be
	// indistinguishable by construction.
	seen := map[Profile]ClassID{}
	for c := ClassID(0); c < NumClasses; c++ {
		p := c.Profile()
		if prev, dup := seen[p]; dup {
			t.Errorf("classes %v and %v share profile %+v", prev, c, p)
		}
		seen[p] = c
	}
}

func TestDomainsWellFormed(t *testing.T) {
	for id := DomainID(0); id < NumDomains; id++ {
		d := GetDomain(id)
		if d.ID != id {
			t.Errorf("domain %s has ID %d at index %d", d.Name, d.ID, id)
		}
		if len(d.Classes) == 0 {
			t.Errorf("domain %s has no classes", d.Name)
		}
		got, ok := DomainByName(d.Name)
		if !ok || got.ID != d.ID {
			t.Errorf("domain %q does not round-trip", d.Name)
		}
		for _, c := range d.Classes {
			if c < 0 || c >= NumClasses {
				t.Errorf("domain %s has invalid class %d", d.Name, c)
			}
		}
	}
	// Domains should not share foreground classes (tasks are distinct).
	owner := map[ClassID]string{}
	for id := DomainID(0); id < NumDomains; id++ {
		d := GetDomain(id)
		for _, c := range d.Classes {
			if prev, dup := owner[c]; dup {
				t.Errorf("class %v in both %s and %s", c, prev, d.Name)
			}
			owner[c] = d.Name
		}
	}
}

func TestCanvasSetAtAndClip(t *testing.T) {
	c := NewCanvas(8)
	c.set(3, 4, [3]float32{0.1, 0.2, 0.3})
	got := c.At(3, 4)
	if got != [3]float32{0.1, 0.2, 0.3} {
		t.Errorf("At = %v", got)
	}
	// Out-of-bounds writes are silently clipped.
	c.set(-1, 0, [3]float32{1, 1, 1})
	c.set(0, 8, [3]float32{1, 1, 1})
	if c.At(0, 0) != [3]float32{0, 0, 0} {
		t.Error("out-of-bounds write leaked")
	}
}

func TestFillBackgroundStatistics(t *testing.T) {
	c := NewCanvas(32)
	rng := tensor.NewRNG(1)
	base := [3]float32{0.5, 0.4, 0.3}
	c.FillBackground(base, 0.02, rng)
	// Mean of red channel near base (gradient averages to ~1.0 factor).
	n := 32 * 32
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(c.Img.Data[i])
	}
	mean := sum / float64(n)
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("background red mean = %v, want ~0.5", mean)
	}
	// All values clamped.
	if c.Img.Min() < 0 || c.Img.Max() > 1 {
		t.Error("background values outside [0,1]")
	}
}

func TestInShapeSilhouettes(t *testing.T) {
	cases := []struct {
		shape   Shape
		u, v    float64
		inside  bool
		comment string
	}{
		{Disc, 0, 0, true, "disc center"},
		{Disc, 0.9, 0.9, false, "disc corner"},
		{Square, 0.9, 0.9, true, "square corner"},
		{Triangle, 0, 0.9, true, "triangle base center"},
		{Triangle, 0.9, -0.9, false, "triangle above apex"},
		{Cross, 0, 0.9, true, "cross vertical arm"},
		{Cross, 0.9, 0, true, "cross horizontal arm"},
		{Cross, 0.8, 0.8, false, "cross corner gap"},
		{Ring, 0, 0, false, "ring hole"},
		{Ring, 0.8, 0, true, "ring band"},
		{Diamond, 0.4, 0.4, true, "diamond interior"},
		{Diamond, 0.8, 0.8, false, "diamond corner"},
	}
	for _, c := range cases {
		if got := inShape(c.shape, c.u, c.v); got != c.inside {
			t.Errorf("%s: inShape(%v, %v, %v) = %v, want %v", c.comment, c.shape, c.u, c.v, got, c.inside)
		}
	}
}

func TestDrawObjectPaintsInsideBox(t *testing.T) {
	c := NewCanvas(32)
	rng := tensor.NewRNG(2)
	// black background; draw a white solid square
	p := Profile{Square, White, Solid, Medium}
	box := geom.Box{X: 0.5, Y: 0.5, W: 0.4, H: 0.4}
	c.DrawObject(p, box, 0, rng)
	center := c.At(16, 16)
	if center[0] < 0.8 {
		t.Errorf("center not painted: %v", center)
	}
	corner := c.At(1, 1)
	if corner != [3]float32{0, 0, 0} {
		t.Errorf("outside box painted: %v", corner)
	}
}

func TestDrawObjectTextures(t *testing.T) {
	rng := tensor.NewRNG(3)
	// Striped square: vertical neighbors in different bands must differ.
	c := NewCanvas(32)
	c.DrawObject(Profile{Square, White, Striped, Large}, geom.Box{X: 0.5, Y: 0.5, W: 0.6, H: 0.6}, 0, rng)
	bright, dark := 0, 0
	for y := 10; y < 22; y++ {
		v := c.At(16, y)[0]
		if v > 0.8 {
			bright++
		} else if v > 0.1 {
			dark++
		}
	}
	if bright == 0 || dark == 0 {
		t.Errorf("striped texture missing bands: bright=%d dark=%d", bright, dark)
	}
	// Dotted disc: some interior pixels keep the background.
	c2 := NewCanvas(32)
	c2.DrawObject(Profile{Square, White, Dotted, Large}, geom.Box{X: 0.5, Y: 0.5, W: 0.6, H: 0.6}, 0, rng)
	holes := 0
	for y := 12; y < 20; y++ {
		for x := 12; x < 20; x++ {
			if c2.At(x, y)[0] < 0.1 {
				holes++
			}
		}
	}
	if holes == 0 {
		t.Error("dotted texture has no holes")
	}
}

func TestGenerateSceneBasics(t *testing.T) {
	rng := tensor.NewRNG(4)
	cfg := DefaultGenConfig()
	dom := GetDomain(Driving)
	sc := Generate(dom, cfg, rng)
	if sc.Image.Shape[0] != 3 || sc.Image.Shape[1] != cfg.Size || sc.Image.Shape[2] != cfg.Size {
		t.Fatalf("image shape %v", sc.Image.Shape)
	}
	if len(sc.Objects) < cfg.MinObjects {
		t.Errorf("scene has %d objects, want >= %d", len(sc.Objects), cfg.MinObjects)
	}
	for _, o := range sc.Objects {
		if !containsClass(dom.Classes, o.Class) {
			t.Errorf("labeled object %v not a driving class", o.Class)
		}
		if o.Box.X < 0 || o.Box.X > 1 || o.Box.Y < 0 || o.Box.Y > 1 {
			t.Errorf("object center outside image: %+v", o.Box)
		}
		if o.Box.W <= 0 || o.Box.H <= 0 {
			t.Errorf("degenerate box %+v", o.Box)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	dom := GetDomain(Medical)
	a := Generate(dom, cfg, tensor.NewRNG(77))
	b := Generate(dom, cfg, tensor.NewRNG(77))
	if !a.Image.Equal(b.Image) {
		t.Error("same seed must render identical scenes")
	}
	if len(a.Objects) != len(b.Objects) {
		t.Error("same seed must produce identical labels")
	}
}

func TestGenerateOnlyClasses(t *testing.T) {
	rng := tensor.NewRNG(5)
	cfg := DefaultGenConfig()
	cfg.OnlyClasses = []ClassID{TrafficCone}
	cfg.ClutterProb = 0
	for i := 0; i < 20; i++ {
		sc := Generate(GetDomain(Driving), cfg, rng)
		for _, o := range sc.Objects {
			if o.Class != TrafficCone {
				t.Fatalf("OnlyClasses violated: got %v", o.Class)
			}
		}
	}
}

func TestGenerateBatchCount(t *testing.T) {
	rng := tensor.NewRNG(6)
	scs := GenerateBatch(GetDomain(Orchard), DefaultGenConfig(), 7, rng)
	if len(scs) != 7 {
		t.Fatalf("batch size %d", len(scs))
	}
}

func TestGenConfigValidate(t *testing.T) {
	bad := []GenConfig{
		{Size: 4},
		{Size: 32, MinObjects: 3, MaxObjects: 1},
		{Size: 32, ClutterProb: 1.5},
		{Size: 32, SizeJitter: 1.0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed: %+v", i, c)
		}
	}
	if err := DefaultGenConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// TestClassesVisuallyDistinct renders each class on a neutral background and
// verifies that the dominant painted color roughly matches the profile color
// — a regression net for the renderer/profile pairing.
func TestClassesVisuallyDistinct(t *testing.T) {
	rng := tensor.NewRNG(8)
	for c := ClassID(0); c < NumClasses; c++ {
		canvas := NewCanvas(32)
		box := geom.Box{X: 0.5, Y: 0.5, W: 0.4, H: 0.4}
		canvas.DrawObject(c.Profile(), box, 0, rng)
		want := c.Profile().Color.RGB()
		// Find the painted pixel closest to the profile color.
		found := false
		for y := 10; y < 22 && !found; y++ {
			for x := 10; x < 22 && !found; x++ {
				px := canvas.At(x, y)
				d := 0.0
				for ch := 0; ch < 3; ch++ {
					dd := float64(px[ch] - want[ch])
					d += dd * dd
				}
				if d < 0.01 {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("class %s: no pixel matches profile color %v", c.Name(), want)
		}
	}
}
