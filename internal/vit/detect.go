package vit

import (
	"fmt"

	"itask/internal/geom"
	"itask/internal/nn"
	"itask/internal/tensor"
)

// Object is a ground-truth object: a box with a class label.
type Object struct {
	Box   geom.Box
	Class int
}

// DetTarget is the per-token training target for one image, in the YOLO-lite
// encoding the detection head uses: the grid cell containing an object's
// center is responsible for predicting it.
type DetTarget struct {
	// Obj is 1 for responsible cells, 0 elsewhere (length Tokens).
	Obj []float32
	// Class is the class index for responsible cells, -1 elsewhere.
	Class []int
	// Box holds (fx, fy, w, h) for responsible cells: fx,fy are the object
	// center's fractional position within the cell in [0,1]; w,h are the
	// box size normalized to the image.
	Box [][4]float32
}

// EncodeTargets builds the detection target for a set of ground-truth
// objects. When two objects land in the same cell the larger one wins,
// mirroring the renderer's occlusion order.
func EncodeTargets(cfg Config, objects []Object) DetTarget {
	t := cfg.Tokens()
	g := cfg.Grid()
	tgt := DetTarget{
		Obj:   make([]float32, t),
		Class: make([]int, t),
		Box:   make([][4]float32, t),
	}
	area := make([]float64, t)
	for i := range tgt.Class {
		tgt.Class[i] = -1
	}
	for _, o := range objects {
		if o.Class < 0 || o.Class >= cfg.Classes {
			panic(fmt.Sprintf("vit: object class %d out of range [0,%d)", o.Class, cfg.Classes))
		}
		gx := int(o.Box.X * float64(g))
		gy := int(o.Box.Y * float64(g))
		if gx < 0 || gx >= g || gy < 0 || gy >= g {
			continue // center outside the image: unlabeled
		}
		cell := gy*g + gx
		if tgt.Obj[cell] == 1 && area[cell] >= o.Box.Area() {
			continue
		}
		area[cell] = o.Box.Area()
		tgt.Obj[cell] = 1
		tgt.Class[cell] = o.Class
		fx := o.Box.X*float64(g) - float64(gx)
		fy := o.Box.Y*float64(g) - float64(gy)
		tgt.Box[cell] = [4]float32{float32(fx), float32(fy), float32(o.Box.W), float32(o.Box.H)}
	}
	return tgt
}

// DetLossWeights balances the three detection loss terms.
type DetLossWeights struct {
	Obj, Box, Class float32
	// NegObj down-weights objectness loss on background cells, which vastly
	// outnumber positives.
	NegObj float32
}

// DefaultDetLossWeights returns the weights used throughout the experiments.
func DefaultDetLossWeights() DetLossWeights {
	return DetLossWeights{Obj: 1, Box: 5, Class: 1, NegObj: 0.3}
}

// DetLoss computes the composite detection loss for raw head output
// (B*Tokens, 5+Classes) against per-image targets, returning the scalar loss
// and the gradient w.r.t. the raw output. Layout per row:
// [objLogit, tx, ty, tw, th, classLogits...]; box coordinates pass through a
// sigmoid before regression.
func DetLoss(cfg Config, out *tensor.Tensor, targets []DetTarget, w DetLossWeights) (float32, *tensor.Tensor) {
	t := cfg.Tokens()
	width := cfg.DetWidth()
	if out.Dims() != 2 || out.Shape[1] != width || out.Shape[0] != len(targets)*t {
		panic(fmt.Sprintf("vit: DetLoss output shape %v for %d targets", out.Shape, len(targets)))
	}
	rows := out.Shape[0]
	grad := tensor.New(rows, width)

	// Objectness: weighted BCE over all cells.
	objLogits := tensor.New(rows)
	objTarget := tensor.New(rows)
	objWeight := tensor.New(rows)
	for bi, tgt := range targets {
		for ti := 0; ti < t; ti++ {
			r := bi*t + ti
			objLogits.Data[r] = out.Data[r*width]
			objTarget.Data[r] = tgt.Obj[ti]
			if tgt.Obj[ti] > 0 {
				objWeight.Data[r] = 1
			} else {
				objWeight.Data[r] = w.NegObj
			}
		}
	}
	objLoss, dObj := nn.BCEWithLogits(objLogits, objTarget, objWeight)
	for r := 0; r < rows; r++ {
		grad.Data[r*width] = w.Obj * dObj.Data[r]
	}

	// Box regression on positive cells: sigmoid(raw) vs target, smooth-L1.
	var boxPred, boxTgt []float32
	var boxIdx []int // flat indices into out.Data
	for bi, tgt := range targets {
		for ti := 0; ti < t; ti++ {
			if tgt.Obj[ti] == 0 {
				continue
			}
			r := bi*t + ti
			for k := 0; k < 4; k++ {
				boxIdx = append(boxIdx, r*width+1+k)
				boxPred = append(boxPred, nn.Sigmoid(out.Data[r*width+1+k]))
				boxTgt = append(boxTgt, tgt.Box[ti][k])
			}
		}
	}
	var boxLoss float32
	if len(boxPred) > 0 {
		bp := tensor.FromSlice(boxPred, len(boxPred))
		bt := tensor.FromSlice(boxTgt, len(boxTgt))
		var dBox *tensor.Tensor
		boxLoss, dBox = nn.SmoothL1(bp, bt, 0.1)
		for i, flat := range boxIdx {
			s := boxPred[i]
			grad.Data[flat] += w.Box * dBox.Data[i] * s * (1 - s) // chain through sigmoid
		}
	}

	// Classification on positive cells.
	classLogits := tensor.New(rows, cfg.Classes)
	labels := make([]int, rows)
	for bi, tgt := range targets {
		for ti := 0; ti < t; ti++ {
			r := bi*t + ti
			labels[r] = tgt.Class[ti]
			copy(classLogits.Data[r*cfg.Classes:(r+1)*cfg.Classes], out.Data[r*width+5:(r+1)*width])
		}
	}
	clsLoss, dCls := nn.CrossEntropy(classLogits, labels)
	for r := 0; r < rows; r++ {
		for j := 0; j < cfg.Classes; j++ {
			grad.Data[r*width+5+j] += w.Class * dCls.At(r, j)
		}
	}

	total := w.Obj*objLoss + w.Box*boxLoss + w.Class*clsLoss
	return total, grad
}

// Decode converts the raw detection output for ONE image (Tokens, 5+Classes)
// into scored boxes above objThresh, then applies NMS.
func Decode(cfg Config, out *tensor.Tensor, objThresh, nmsIoU float64) []geom.Scored {
	t := cfg.Tokens()
	width := cfg.DetWidth()
	if out.Dims() != 2 || out.Shape[0] != t || out.Shape[1] != width {
		panic(fmt.Sprintf("vit: Decode output shape %v, want (%d,%d)", out.Shape, t, width))
	}
	var ws Workspace
	return ws.decode(cfg, out.Data, objThresh, nmsIoU)
}

// decode is Decode on one image's head rows (Tokens·(5+Classes) values),
// read in place, with the class probabilities and the candidates before NMS
// in ws. Only the NMS result is fresh.
func (ws *Workspace) decode(cfg Config, out []float32, objThresh, nmsIoU float64) []geom.Scored {
	t, width, g := cfg.Tokens(), cfg.DetWidth(), cfg.Grid()
	probs := ws.F32(cfg.Classes)
	dets := ws.cands[:0]
	for ti := 0; ti < t; ti++ {
		row := out[ti*width : (ti+1)*width]
		obj := float64(nn.Sigmoid(row[0]))
		if obj < objThresh {
			continue
		}
		gy, gx := ti/g, ti%g
		fx := float64(nn.Sigmoid(row[1]))
		fy := float64(nn.Sigmoid(row[2]))
		bw := float64(nn.Sigmoid(row[3]))
		bh := float64(nn.Sigmoid(row[4]))
		cls := 0
		best := row[5]
		for j := 1; j < cfg.Classes; j++ {
			if row[5+j] > best {
				best, cls = row[5+j], j
			}
		}
		// Score = objectness * class confidence.
		tensor.SoftmaxRow(probs, row[5:])
		score := obj * float64(probs[cls])
		dets = append(dets, geom.Scored{
			Box: geom.Box{
				X: (float64(gx) + fx) / float64(g),
				Y: (float64(gy) + fy) / float64(g),
				W: bw,
				H: bh,
			},
			Class: cls,
			Score: score,
		})
	}
	ws.cands = dets
	return geom.NMS(dets, nmsIoU)
}
