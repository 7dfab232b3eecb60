package vit_test

import (
	"math"
	"sync"
	"testing"

	"itask/internal/quant"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// TestConcurrentInferenceSharesNothing: goroutines running the inference
// forward on one float model and one int8 model at once, at batches 1, 3
// and 8, get the serial answer every time, and a feature tensor a forward
// returned is unchanged after 100 later forwards — an output never aliases
// the pooled workspace.
func TestConcurrentInferenceSharesNothing(t *testing.T) {
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(41)
	m := vit.New(cfg, rng)
	qm, err := quant.FromViT(m, quant.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name    string
		forward func(*tensor.Tensor) *tensor.Tensor
	}{
		{"float", func(p *tensor.Tensor) *tensor.Tensor { return m.Forward(p, false) }},
		{"int8", qm.Forward},
	}
	imgs := make([]*tensor.Tensor, 8)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 0.5, 3, 32, 32)
	}
	batches := []int{1, 3, 8}
	patches := make([]*tensor.Tensor, len(batches))
	want := make([][][]float32, len(models))
	for mi, md := range models {
		for bi, b := range batches {
			patches[bi] = vit.Patchify(cfg, imgs[:b])
			want[mi] = append(want[mi], md.forward(patches[bi]).Data)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first *tensor.Tensor
			var firstWant []float32
			for i := 0; i <= 100; i++ {
				mi, bi := (g+i)%len(models), (g+i/2)%len(batches)
				got := models[mi].forward(patches[bi])
				if !sameBits(got.Data, want[mi][bi]) {
					t.Errorf("goroutine %d: %s forward at batch %d differs from the serial answer", g, models[mi].name, batches[bi])
					return
				}
				if first == nil {
					first, firstWant = got, want[mi][bi]
				}
			}
			if !sameBits(first.Data, firstWant) {
				t.Errorf("goroutine %d: a returned feature tensor changed under 100 later forwards", g)
			}
		}()
	}
	wg.Wait()
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
