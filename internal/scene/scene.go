package scene

import (
	"fmt"

	"itask/internal/geom"
	"itask/internal/tensor"
)

// GroundTruth is one labeled object in a scene.
type GroundTruth struct {
	Box   geom.Box
	Class ClassID
}

// Scene is a rendered image with its labels.
type Scene struct {
	Image   *tensor.Tensor // (3, Size, Size)
	Objects []GroundTruth
	Domain  DomainID
}

// GenConfig controls scene generation.
type GenConfig struct {
	// Size is the image edge in pixels.
	Size int
	// MinObjects and MaxObjects bound the foreground object count.
	MinObjects, MaxObjects int
	// ClutterProb is the chance of adding one distractor object from the
	// domain's clutter list (unlabeled for foreign classes).
	ClutterProb float64
	// ColorJitter is the appearance-variation noise std.
	ColorJitter float32
	// SizeJitter scales the sampled box size by 1±SizeJitter uniformly.
	SizeJitter float64
	// OnlyClasses, when non-empty, restricts generated foreground objects
	// to this subset of the domain's classes.
	OnlyClasses []ClassID
}

// DefaultGenConfig returns the generation settings used throughout the
// experiments: 32-pixel scenes with 1-3 objects and mild jitter.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Size: 32, MinObjects: 1, MaxObjects: 3,
		ClutterProb: 0.3, ColorJitter: 0.05, SizeJitter: 0.15,
	}
}

// Validate checks the generation config.
func (g GenConfig) Validate() error {
	switch {
	case g.Size < 8:
		return fmt.Errorf("scene: size %d too small", g.Size)
	case g.MinObjects < 0 || g.MaxObjects < g.MinObjects:
		return fmt.Errorf("scene: bad object count range [%d,%d]", g.MinObjects, g.MaxObjects)
	case g.ClutterProb < 0 || g.ClutterProb > 1:
		return fmt.Errorf("scene: clutter prob %v", g.ClutterProb)
	case g.SizeJitter < 0 || g.SizeJitter >= 1:
		return fmt.Errorf("scene: size jitter %v", g.SizeJitter)
	}
	return nil
}

// Generate renders one random scene from the given domain.
func Generate(dom Domain, cfg GenConfig, rng *tensor.RNG) Scene {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	canvas := NewCanvas(cfg.Size)
	canvas.FillBackground(dom.Background, dom.NoiseStd, rng)

	classes := dom.Classes
	if len(cfg.OnlyClasses) > 0 {
		classes = cfg.OnlyClasses
	}
	n := cfg.MinObjects
	if cfg.MaxObjects > cfg.MinObjects {
		n += rng.Intn(cfg.MaxObjects - cfg.MinObjects + 1)
	}
	sc := Scene{Image: canvas.Img, Domain: dom.ID}
	// Track occupied centers to reduce (not forbid) cell collisions.
	var placed []geom.Box
	for i := 0; i < n; i++ {
		cls := classes[rng.Intn(len(classes))]
		box := sampleBox(cls.Profile(), cfg, rng, placed)
		placed = append(placed, box)
		canvas.DrawObject(cls.Profile(), box, cfg.ColorJitter, rng)
		sc.Objects = append(sc.Objects, GroundTruth{Box: box, Class: cls})
	}
	// Optional clutter: rendered but only labeled if it is a domain class.
	if rng.Bool(cfg.ClutterProb) && len(dom.Clutter) > 0 {
		cls := dom.Clutter[rng.Intn(len(dom.Clutter))]
		box := sampleBox(cls.Profile(), cfg, rng, placed)
		canvas.DrawObject(cls.Profile(), box, cfg.ColorJitter, rng)
		if containsClass(dom.Classes, cls) {
			sc.Objects = append(sc.Objects, GroundTruth{Box: box, Class: cls})
		}
	}
	return sc
}

func containsClass(cs []ClassID, c ClassID) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// sampleBox draws a box for the class profile, preferring positions whose
// center is far from already-placed objects (rejection sampling with a
// bounded number of tries; after that, any position is accepted).
func sampleBox(p Profile, cfg GenConfig, rng *tensor.RNG, placed []geom.Box) geom.Box {
	lo, hi := p.Size.Range()
	for try := 0; ; try++ {
		edge := rng.Range(lo, hi)
		jit := 1 + cfg.SizeJitter*(2*rng.Float64()-1)
		w := edge * jit
		h := edge * (2 - jit) // anti-correlated so area stays near edge²
		margin := maxF(w, h) / 2
		x := rng.Range(margin, 1-margin)
		y := rng.Range(margin, 1-margin)
		box := geom.Box{X: x, Y: y, W: w, H: h}
		ok := true
		for _, pb := range placed {
			if geom.IoU(box, pb) > 0.15 {
				ok = false
				break
			}
		}
		if ok || try >= 8 {
			return box
		}
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
