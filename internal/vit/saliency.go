package vit

import (
	"fmt"

	"itask/internal/tensor"
)

// AttentionRollout computes a per-token saliency map for ONE image using
// attention rollout (Abnar & Zuidema, 2020): per block, the head-averaged
// attention matrix is mixed with the residual identity (0.5·A + 0.5·I),
// row-normalized, and the per-block matrices are multiplied front to back.
// The returned length-Tokens vector is each token's column mass in the
// rolled-out matrix, normalized to sum to 1 — how much total attention
// flows into each patch.
//
// The model's attention caches are populated by a training-mode forward
// pass internally (weights are untouched: no Backward runs, and the
// experiment configs use zero dropout).
func (m *Model) AttentionRollout(img *tensor.Tensor) []float64 {
	patches := Patchify(m.Cfg, []*tensor.Tensor{img})
	m.Forward(patches, true) // populate attention caches
	t := m.Cfg.Tokens()

	// Start with identity.
	rolled := tensor.New(t, t)
	for i := 0; i < t; i++ {
		rolled.Set(1, i, i)
	}
	for _, b := range m.Blocks {
		probs := b.Attn.LastProbs()
		if len(probs) < m.Cfg.Heads {
			panic(fmt.Sprintf("vit: attention cache has %d matrices, want >= %d", len(probs), m.Cfg.Heads))
		}
		// Head-average for the single image (batch 0).
		avg := tensor.New(t, t)
		for h := 0; h < m.Cfg.Heads; h++ {
			avg.AddInPlace(probs[h])
		}
		avg.ScaleInPlace(1 / float32(m.Cfg.Heads))
		// Mix with the residual identity and row-normalize.
		for i := 0; i < t; i++ {
			var sum float32
			for j := 0; j < t; j++ {
				v := 0.5 * avg.At(i, j)
				if i == j {
					v += 0.5
				}
				avg.Set(v, i, j)
				sum += v
			}
			for j := 0; j < t; j++ {
				avg.Set(avg.At(i, j)/sum, i, j)
			}
		}
		rolled = tensor.MatMul(avg, rolled)
	}
	// Column mass: total attention received by each token.
	out := make([]float64, t)
	var total float64
	for j := 0; j < t; j++ {
		var col float64
		for i := 0; i < t; i++ {
			col += float64(rolled.At(i, j))
		}
		out[j] = col
		total += col
	}
	if total > 0 {
		for j := range out {
			out[j] /= total
		}
	}
	return out
}

// RenderSaliencyASCII draws a Grid×Grid saliency map as characters from
// light to heavy, for terminal inspection.
func RenderSaliencyASCII(cfg Config, saliency []float64) string {
	g := cfg.Grid()
	if len(saliency) != g*g {
		panic(fmt.Sprintf("vit: saliency length %d for %dx%d grid", len(saliency), g, g))
	}
	ramp := []byte(" .:-=+*#%@")
	mx := 0.0
	for _, v := range saliency {
		if v > mx {
			mx = v
		}
	}
	var b []byte
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			level := 0
			if mx > 0 {
				level = int(saliency[y*g+x] / mx * float64(len(ramp)-1))
			}
			b = append(b, ramp[level], ramp[level])
		}
		b = append(b, '\n')
	}
	return string(b)
}
