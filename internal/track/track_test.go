package track

import (
	"testing"

	"itask/internal/geom"
)

func det(x, y, w, h float64, class int, score float64) geom.Scored {
	return geom.Scored{Box: geom.Box{X: x, Y: y, W: w, H: h}, Class: class, Score: score}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{IoUThresh: 0, MaxMisses: 1, MinHits: 1, VelocitySmoothing: 0.5},
		{IoUThresh: 0.5, MaxMisses: -1, MinHits: 1, VelocitySmoothing: 0.5},
		{IoUThresh: 0.5, MaxMisses: 1, MinHits: 0, VelocitySmoothing: 0.5},
		{IoUThresh: 0.5, MaxMisses: 1, MinHits: 1, VelocitySmoothing: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed", i)
		}
	}
}

func TestTrackConfirmationLifecycle(t *testing.T) {
	tr := New(DefaultConfig()) // MinHits 2
	// First frame: tentative, nothing emitted.
	out := tr.Update([]geom.Scored{det(0.5, 0.5, 0.2, 0.2, 1, 0.9)})
	if len(out) != 0 {
		t.Fatalf("tentative track emitted: %+v", out)
	}
	// Second frame: confirmed.
	out = tr.Update([]geom.Scored{det(0.51, 0.5, 0.2, 0.2, 1, 0.9)})
	if len(out) != 1 {
		t.Fatalf("expected 1 confirmed track, got %d", len(out))
	}
	if out[0].ID != 1 || out[0].Class != 1 {
		t.Errorf("track = %+v", out[0])
	}
}

func TestTrackStableIdentity(t *testing.T) {
	tr := New(DefaultConfig())
	var id int
	for f := 0; f < 10; f++ {
		x := 0.2 + 0.02*float64(f) // moving right
		out := tr.Update([]geom.Scored{det(x, 0.5, 0.2, 0.2, 0, 0.9)})
		if f >= 1 {
			if len(out) != 1 {
				t.Fatalf("frame %d: %d tracks", f, len(out))
			}
			if id == 0 {
				id = out[0].ID
			} else if out[0].ID != id {
				t.Fatalf("identity switched at frame %d", f)
			}
		}
	}
}

func TestTrackSurvivesShortOcclusion(t *testing.T) {
	cfg := DefaultConfig() // MaxMisses 3
	tr := New(cfg)
	tr.Update([]geom.Scored{det(0.5, 0.5, 0.2, 0.2, 0, 0.9)})
	out := tr.Update([]geom.Scored{det(0.52, 0.5, 0.2, 0.2, 0, 0.9)})
	id := out[0].ID
	// Two missed frames (occlusion).
	tr.Update(nil)
	tr.Update(nil)
	// Reappears roughly where velocity predicts.
	out = tr.Update([]geom.Scored{det(0.58, 0.5, 0.2, 0.2, 0, 0.9)})
	if len(out) != 1 || out[0].ID != id {
		t.Fatalf("track lost across occlusion: %+v", out)
	}
}

func TestTrackDiesAfterMaxMisses(t *testing.T) {
	tr := New(DefaultConfig())
	tr.Update([]geom.Scored{det(0.5, 0.5, 0.2, 0.2, 0, 0.9)})
	tr.Update([]geom.Scored{det(0.5, 0.5, 0.2, 0.2, 0, 0.9)})
	for i := 0; i < 4; i++ { // > MaxMisses
		tr.Update(nil)
	}
	if len(tr.tracks) != 0 {
		t.Errorf("stale track survived: %d active", len(tr.tracks))
	}
	// A new object gets a NEW id.
	tr.Update([]geom.Scored{det(0.5, 0.5, 0.2, 0.2, 0, 0.9)})
	out := tr.Update([]geom.Scored{det(0.5, 0.5, 0.2, 0.2, 0, 0.9)})
	if len(out) != 1 || out[0].ID == 1 {
		t.Errorf("resurrected id: %+v", out)
	}
}

func TestTwoObjectsTwoTracks(t *testing.T) {
	tr := New(DefaultConfig())
	frame := []geom.Scored{
		det(0.25, 0.25, 0.2, 0.2, 0, 0.9),
		det(0.75, 0.75, 0.2, 0.2, 1, 0.8),
	}
	tr.Update(frame)
	out := tr.Update(frame)
	if len(out) != 2 {
		t.Fatalf("expected 2 tracks, got %d", len(out))
	}
	if out[0].ID == out[1].ID {
		t.Error("distinct objects share an ID")
	}
}

func TestEvaluateTrackingPerfect(t *testing.T) {
	// Build GT and emitted tracks that agree exactly.
	var gtFrames [][]GT
	var outFrames [][]Track
	for f := 0; f < 5; f++ {
		x := 0.3 + 0.05*float64(f)
		gtFrames = append(gtFrames, []GT{{TrackID: 7, Box: geom.Box{X: x, Y: 0.5, W: 0.2, H: 0.2}, Class: 2}})
		outFrames = append(outFrames, []Track{{ID: 1, Box: geom.Box{X: x, Y: 0.5, W: 0.2, H: 0.2}, Class: 2}})
	}
	q := EvaluateTracking(gtFrames, outFrames, 0.5)
	if q.Recall != 1 || q.Precision != 1 || q.IDSwitches != 0 || q.MostlyTracked != 1 {
		t.Errorf("perfect tracking misjudged: %+v", q)
	}
}

func TestEvaluateTrackingIDSwitch(t *testing.T) {
	box := geom.Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}
	gtFrames := [][]GT{
		{{TrackID: 1, Box: box, Class: 0}},
		{{TrackID: 1, Box: box, Class: 0}},
		{{TrackID: 1, Box: box, Class: 0}},
	}
	outFrames := [][]Track{
		{{ID: 10, Box: box, Class: 0}},
		{{ID: 11, Box: box, Class: 0}}, // switch!
		{{ID: 11, Box: box, Class: 0}},
	}
	q := EvaluateTracking(gtFrames, outFrames, 0.5)
	if q.IDSwitches != 1 {
		t.Errorf("IDSwitches = %d, want 1", q.IDSwitches)
	}
}

func TestEvaluateTrackingMisses(t *testing.T) {
	box := geom.Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}
	gtFrames := [][]GT{
		{{TrackID: 1, Box: box, Class: 0}},
		{{TrackID: 1, Box: box, Class: 0}},
	}
	outFrames := [][]Track{
		{{ID: 1, Box: box, Class: 0}},
		{}, // missed frame
	}
	q := EvaluateTracking(gtFrames, outFrames, 0.5)
	if q.Recall != 0.5 {
		t.Errorf("recall = %v, want 0.5", q.Recall)
	}
	// 1 of 2 frames covered = 50% < 80%: not mostly tracked.
	if q.MostlyTracked != 0 {
		t.Errorf("MostlyTracked = %d, want 0", q.MostlyTracked)
	}
}

func TestEvaluateTrackingClassAware(t *testing.T) {
	box := geom.Box{X: 0.5, Y: 0.5, W: 0.2, H: 0.2}
	gtFrames := [][]GT{{{TrackID: 1, Box: box, Class: 0}}}
	outFrames := [][]Track{{{ID: 1, Box: box, Class: 3}}} // wrong class
	q := EvaluateTracking(gtFrames, outFrames, 0.5)
	if q.Recall != 0 || q.Precision != 0 {
		t.Errorf("wrong-class match accepted: %+v", q)
	}
}
