// Package track implements a SORT-lite multi-object tracker over iTask
// detections: greedy IoU association against constant-velocity-extrapolated
// track states, with hit/miss lifecycle management. It supports the
// streaming deployments the paper motivates (patrol, monitoring) where
// per-frame detections must become stable object identities.
package track

import (
	"fmt"
	"sort"

	"itask/internal/geom"
)

// Track is one tracked object.
type Track struct {
	// ID is the stable track identity, assigned at confirmation.
	ID int
	// Box is the current (last associated or predicted) box.
	Box geom.Box
	// Class is the majority-vote class of the track's detections.
	Class int
	// Score is an exponential moving average of detection scores.
	Score float64
	// Hits counts associated detections; Misses counts consecutive frames
	// without one; Age counts frames since creation.
	Hits, Misses, Age int

	vx, vy     float64
	classVotes map[int]int
	confirmed  bool
}

// predict extrapolates the box one frame with the velocity estimate.
func (t *Track) predict() geom.Box {
	b := t.Box
	b.X += t.vx
	b.Y += t.vy
	return b.Clip()
}

// Config tunes the tracker.
type Config struct {
	// IoUThresh is the minimum overlap for association.
	IoUThresh float64
	// MaxMisses is the consecutive-miss count after which a track dies.
	MaxMisses int
	// MinHits is the hit count needed to confirm (emit) a track.
	MinHits int
	// VelocitySmoothing is the EMA factor for velocity updates in (0,1];
	// 1 means use only the latest displacement.
	VelocitySmoothing float64
}

// DefaultConfig returns settings tuned for the 30-frame synthetic videos.
func DefaultConfig() Config {
	return Config{IoUThresh: 0.25, MaxMisses: 3, MinHits: 2, VelocitySmoothing: 0.5}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.IoUThresh <= 0 || c.IoUThresh >= 1:
		return fmt.Errorf("track: IoU threshold %v", c.IoUThresh)
	case c.MaxMisses < 0 || c.MinHits < 1:
		return fmt.Errorf("track: lifecycle config %d/%d", c.MaxMisses, c.MinHits)
	case c.VelocitySmoothing <= 0 || c.VelocitySmoothing > 1:
		return fmt.Errorf("track: velocity smoothing %v", c.VelocitySmoothing)
	}
	return nil
}

// Tracker maintains track state across frames. Not safe for concurrent use.
type Tracker struct {
	cfg    Config
	tracks []*Track
	nextID int
}

// New creates a tracker.
func New(cfg Config) *Tracker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Tracker{cfg: cfg, nextID: 1}
}

// Update associates one frame's detections with existing tracks (greedy,
// best IoU first, same class only), spawns tentative tracks for unmatched
// detections, ages out stale tracks, and returns the confirmed tracks.
func (tr *Tracker) Update(dets []geom.Scored) []Track {
	type cand struct {
		ti, di int
		iou    float64
	}
	var cands []cand
	for ti, t := range tr.tracks {
		pred := t.predict()
		for di, d := range dets {
			if d.Class != t.Class && t.confirmed {
				continue
			}
			if iou := geom.IoU(pred, d.Box); iou >= tr.cfg.IoUThresh {
				cands = append(cands, cand{ti, di, iou})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].iou > cands[j].iou })
	usedT := map[int]bool{}
	usedD := map[int]bool{}
	for _, c := range cands {
		if usedT[c.ti] || usedD[c.di] {
			continue
		}
		usedT[c.ti] = true
		usedD[c.di] = true
		tr.associate(tr.tracks[c.ti], dets[c.di])
	}
	// Unmatched tracks: miss.
	for ti, t := range tr.tracks {
		if usedT[ti] {
			continue
		}
		t.Misses++
		t.Age++
		// Coast on the velocity estimate.
		t.Box = t.predict()
	}
	// Unmatched detections: tentative tracks.
	for di, d := range dets {
		if usedD[di] {
			continue
		}
		tr.tracks = append(tr.tracks, &Track{
			Box: d.Box, Class: d.Class, Score: d.Score,
			Hits: 1, Age: 1,
			classVotes: map[int]int{d.Class: 1},
		})
	}
	// Reap dead tracks.
	alive := tr.tracks[:0]
	for _, t := range tr.tracks {
		if t.Misses <= tr.cfg.MaxMisses {
			alive = append(alive, t)
		}
	}
	tr.tracks = alive

	// Emit confirmed tracks.
	var out []Track
	for _, t := range tr.tracks {
		if t.Hits >= tr.cfg.MinHits && t.Misses == 0 {
			if !t.confirmed {
				t.confirmed = true
				t.ID = tr.nextID
				tr.nextID++
			}
			out = append(out, *t)
		}
	}
	return out
}

// associate folds a detection into a track.
func (tr *Tracker) associate(t *Track, d geom.Scored) {
	s := tr.cfg.VelocitySmoothing
	dx := d.Box.X - t.Box.X
	dy := d.Box.Y - t.Box.Y
	if t.Hits > 0 {
		t.vx = (1-s)*t.vx + s*dx
		t.vy = (1-s)*t.vy + s*dy
	}
	t.Box = d.Box
	t.Score = 0.7*t.Score + 0.3*d.Score
	t.Hits++
	t.Misses = 0
	t.Age++
	t.classVotes[d.Class]++
	// Majority class (ties broken by smaller class id for determinism).
	best, bestN := t.Class, 0
	for cls, n := range t.classVotes {
		if n > bestN || (n == bestN && cls < best) {
			best, bestN = cls, n
		}
	}
	t.Class = best
}
