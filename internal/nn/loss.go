package nn

import (
	"fmt"
	"math"

	"itask/internal/tensor"
)

// CrossEntropy computes mean softmax cross-entropy between logits (N,C) and
// integer labels, returning the scalar loss and dLoss/dLogits.
// A label of -1 means "ignore this row" (contributes nothing to loss or
// gradient), which the detection head uses for don't-care cells.
func CrossEntropy(logits *tensor.Tensor, labels []int) (float32, *tensor.Tensor) {
	checkRank("CrossEntropy", logits, 2)
	n, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropy %d labels for %d rows", len(labels), n))
	}
	grad := tensor.New(n, c)
	var loss float64
	count := 0
	for i := 0; i < n; i++ {
		if labels[i] < 0 {
			continue
		}
		count++
	}
	if count == 0 {
		return 0, grad
	}
	inv := float32(1 / float64(count))
	probs := tensor.SoftmaxRows(logits)
	lse := tensor.LogSumExpRows(logits)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 {
			continue
		}
		if y >= c {
			panic(fmt.Sprintf("nn: CrossEntropy label %d out of range [0,%d)", y, c))
		}
		loss += float64(lse[i] - logits.At(i, y))
		grow := grad.Data[i*c : (i+1)*c]
		prow := probs.Data[i*c : (i+1)*c]
		for j, p := range prow {
			grow[j] = p * inv
		}
		grow[y] -= inv
	}
	return float32(loss / float64(count)), grad
}

// KLDistill computes the Hinton distillation loss
// T² · KL(softmax(teacher/T) ‖ softmax(student/T)) averaged over rows,
// returning the loss and its gradient w.r.t. the student logits.
// The T² factor keeps gradient magnitudes comparable across temperatures.
func KLDistill(student, teacher *tensor.Tensor, temp float32) (float32, *tensor.Tensor) {
	if !student.SameShape(teacher) {
		panic("nn: KLDistill shape mismatch")
	}
	if temp <= 0 {
		panic("nn: KLDistill temperature must be positive")
	}
	n, c := student.Shape[0], student.Shape[1]
	st := tensor.Scale(student, 1/temp)
	tt := tensor.Scale(teacher, 1/temp)
	sp := tensor.SoftmaxRows(st)
	tp := tensor.SoftmaxRows(tt)
	slse := tensor.LogSumExpRows(st)
	tlse := tensor.LogSumExpRows(tt)
	grad := tensor.New(n, c)
	var loss float64
	// d/ds_j of KL = (1/T)(softmax(s/T)_j - softmax(t/T)_j); times T² -> T.
	g := temp / float32(n)
	for i := 0; i < n; i++ {
		srow := st.Data[i*c : (i+1)*c]
		trow := tt.Data[i*c : (i+1)*c]
		tpr := tp.Data[i*c : (i+1)*c]
		spr := sp.Data[i*c : (i+1)*c]
		grow := grad.Data[i*c : (i+1)*c]
		for j, tpv := range tpr {
			if tpv > 0 {
				logT := float64(trow[j] - tlse[i])
				logS := float64(srow[j] - slse[i])
				loss += float64(tpv) * (logT - logS)
			}
			grow[j] = g * (spr[j] - tpv)
		}
	}
	return float32(temp) * float32(temp) * float32(loss/float64(n)), grad
}

// MSE computes mean squared error 1/N Σ(pred-target)², N = element count,
// and its gradient w.r.t. pred.
func MSE(pred, target *tensor.Tensor) (float32, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic("nn: MSE shape mismatch")
	}
	n := pred.Size()
	grad := tensor.New(pred.Shape...)
	if n == 0 {
		return 0, grad
	}
	var loss float64
	inv := float32(2 / float64(n))
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += float64(d) * float64(d)
		grad.Data[i] = inv * d
	}
	return float32(loss / float64(n)), grad
}

// SmoothL1 computes the Huber-style smooth-L1 loss with threshold beta,
// averaged over all elements; used for box regression.
func SmoothL1(pred, target *tensor.Tensor, beta float32) (float32, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic("nn: SmoothL1 shape mismatch")
	}
	if beta <= 0 {
		panic("nn: SmoothL1 beta must be positive")
	}
	n := pred.Size()
	grad := tensor.New(pred.Shape...)
	if n == 0 {
		return 0, grad
	}
	var loss float64
	inv := float32(1 / float64(n))
	for i, p := range pred.Data {
		d := p - target.Data[i]
		ad := d
		if ad < 0 {
			ad = -ad
		}
		if ad < beta {
			loss += float64(0.5 * d * d / beta)
			grad.Data[i] = inv * d / beta
		} else {
			loss += float64(ad - 0.5*beta)
			if d > 0 {
				grad.Data[i] = inv
			} else {
				grad.Data[i] = -inv
			}
		}
	}
	return float32(loss / float64(n)), grad
}

// BCEWithLogits computes mean binary cross-entropy over logits and {0,1}
// targets with optional per-element weights (nil = all ones), returning the
// loss and gradient w.r.t. logits. Numerically stable formulation.
func BCEWithLogits(logits, target, weight *tensor.Tensor) (float32, *tensor.Tensor) {
	if !logits.SameShape(target) {
		panic("nn: BCEWithLogits shape mismatch")
	}
	if weight != nil && !weight.SameShape(logits) {
		panic("nn: BCEWithLogits weight shape mismatch")
	}
	n := logits.Size()
	grad := tensor.New(logits.Shape...)
	if n == 0 {
		return 0, grad
	}
	var loss, wsum float64
	for i, x := range logits.Data {
		w := float32(1)
		if weight != nil {
			w = weight.Data[i]
		}
		t := target.Data[i]
		// loss = max(x,0) - x*t + log(1+exp(-|x|))
		ax := x
		if ax < 0 {
			ax = -ax
		}
		mx := x
		if mx < 0 {
			mx = 0
		}
		loss += float64(w) * (float64(mx) - float64(x*t) + math.Log1p(math.Exp(-float64(ax))))
		grad.Data[i] = w * (Sigmoid(x) - t)
		wsum += float64(w)
	}
	if wsum == 0 {
		grad.Zero()
		return 0, grad
	}
	grad.ScaleInPlace(float32(1 / wsum))
	return float32(loss / wsum), grad
}
