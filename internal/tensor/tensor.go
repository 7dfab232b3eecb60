// Package tensor provides a small, dependency-free float32 tensor library
// used by every numeric subsystem in iTask: the neural-network layers, the
// quantization kernels, and the synthetic scene renderer.
//
// Tensors are dense, row-major, and always contiguous. The package favours
// explicit shapes and loud failures: shape mismatches panic, because in this
// codebase a shape mismatch is always a programming error, never a runtime
// condition to recover from.
package tensor

import (
	"fmt"
	"runtime"
	"strings"
)

// Tensor is a dense row-major float32 array with an explicit shape.
// The zero value is not useful; construct tensors with New, Full,
// FromSlice, or the random constructors in random.go.
type Tensor struct {
	// Data holds the elements in row-major order. len(Data) == Size().
	Data []float32
	// Shape holds the extent of each dimension. A scalar has Shape == [].
	Shape []int
}

// New allocates a zero-filled tensor with the given shape.
// New() with no arguments allocates a scalar.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// Full allocates a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones allocates a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it afterwards unless that
// sharing is intended. Panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice: %d elements for shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// checkShape validates a shape and returns the element count.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dims returns the number of dimensions (rank).
func (t *Tensor) Dims() int { return len(t.Shape) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if u.Shape[i] != d {
			return false
		}
	}
	return true
}

// mustSameShape panics with op context when shapes differ.
func mustSameShape(op string, t, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s: shape mismatch %v vs %v", op, t.Shape, u.Shape))
	}
}

// offset computes the flat index for the given multi-dimensional index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	u := &Tensor{Data: make([]float32, len(t.Data)), Shape: append([]int(nil), t.Shape...)}
	copy(u.Data, t.Data)
	return u
}

// CopyFrom copies u's data into t. Shapes must match.
func (t *Tensor) CopyFrom(u *Tensor) {
	mustSameShape("CopyFrom", t, u)
	copy(t.Data, u.Data)
}

// Row returns a view of row i of a 2-D tensor, sharing data.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on %d-D tensor", len(t.Shape)))
	}
	c := t.Shape[1]
	return &Tensor{Data: t.Data[i*c : (i+1)*c], Shape: []int{c}}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Equal reports whether t and u have the same shape and identical elements.
func (t *Tensor) Equal(u *Tensor) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		if u.Data[i] != v {
			return false
		}
	}
	return true
}

// AllClose reports whether t and u have the same shape and elementwise
// |t-u| <= atol + rtol*|u|.
func (t *Tensor) AllClose(u *Tensor, rtol, atol float32) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		d := v - u.Data[i]
		if d < 0 {
			d = -d
		}
		r := u.Data[i]
		if r < 0 {
			r = -r
		}
		if d > atol+rtol*r {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if t.Size() <= 64 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v ", t.Shape)
		fmt.Fprintf(&b, "%v", t.Data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v (%d elements)", t.Shape, t.Size())
}

// Transpose returns a new 2-D tensor that is the transpose of t.
func (t *Tensor) Transpose() *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose on %d-D tensor", len(t.Shape)))
	}
	r, c := t.Shape[0], t.Shape[1]
	u := New(c, r)
	// Blocked transpose for cache friendliness on larger matrices.
	const blk = 32
	for i0 := 0; i0 < r; i0 += blk {
		i1 := min(i0+blk, r)
		for j0 := 0; j0 < c; j0 += blk {
			j1 := min(j0+blk, c)
			for i := i0; i < i1; i++ {
				row := t.Data[i*c:]
				for j := j0; j < j1; j++ {
					u.Data[j*r+i] = row[j]
				}
			}
		}
	}
	return u
}

// Workers returns the compute width, the current GOMAXPROCS. Every kernel in
// this package runs on its calling goroutine; the width is spent by callers
// running side by side (the serve tier's workers, whose default count this
// is), never by one kernel splitting itself across cores.
func Workers() int { return runtime.GOMAXPROCS(0) }
