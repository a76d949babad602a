// Package tensor provides the dense float32 tensor substrate used by every
// other package in this repository: shapes, element access, BLAS-like kernels
// (matmul, axpy), im2col/col2im for convolution lowering, reductions, and
// random initialisation. Tensors are always contiguous row-major.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, contiguous, row-major float32 tensor.
//
// The zero value is not usable; construct tensors with New, Zeros, FromSlice,
// or one of the random initialisers.
type Tensor struct {
	shape []int
	Data  []float32
	dims  [4]int // inline storage for shapes of rank ≤ 4; see withShape
}

// withShape wraps data in a tensor holding a copy of shape. Shapes of rank
// ≤ 4 live in the header itself, so a new tensor costs two allocations —
// header and data — rather than three.
func withShape(data []float32, shape []int) *Tensor {
	t := &Tensor{Data: data}
	if len(shape) <= len(t.dims) {
		t.shape = t.dims[:len(shape):len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = append([]int(nil), shape...)
	}
	return t
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Format a copy: passing shape itself would move every
			// caller's variadic array to the heap.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return withShape(make([]float32, n), shape)
}

// Zeros is an alias for New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); it panics if the length does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), append([]int(nil), shape...), n))
	}
	return withShape(data, shape)
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// offset computes the flat index of a multi-dimensional index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
// One dimension may be -1, in which case it is inferred. It panics if the
// element count changes.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer != -1 {
				panic("tensor: at most one -1 dimension allowed in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for reshape %v of %v", shape, t.shape))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with size %d", shape, len(t.Data)))
	}
	return &Tensor{shape: shape, Data: t.Data}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// CopyFrom copies u's data into t. The shapes must match in element count.
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.Data, u.Data)
}

// Rand fills t with uniform values in [-scale, scale) drawn from rng.
func (t *Tensor) Rand(rng *rand.Rand, scale float32) *Tensor {
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return t
}

// Randn fills t with normal values of the given standard deviation.
func (t *Tensor) Randn(rng *rand.Rand, std float32) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * std
	}
	return t
}

// GlorotUniform fills t with the Glorot/Xavier uniform initialisation for a
// parameter with the given fan-in and fan-out.
func (t *Tensor) GlorotUniform(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	return t.Rand(rng, limit)
}

// HeNormal fills t with the He normal initialisation for the given fan-in.
func (t *Tensor) HeNormal(rng *rand.Rand, fanIn int) *Tensor {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	return t.Randn(rng, std)
}

// Add accumulates u into t element-wise and returns t.
func (t *Tensor) Add(u *Tensor) *Tensor {
	if len(t.Data) != len(u.Data) {
		panic("tensor: Add size mismatch")
	}
	for i, v := range u.Data {
		t.Data[i] += v
	}
	return t
}

// Sub subtracts u from t element-wise and returns t.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	if len(t.Data) != len(u.Data) {
		panic("tensor: Sub size mismatch")
	}
	for i, v := range u.Data {
		t.Data[i] -= v
	}
	return t
}

// Mul multiplies t by u element-wise and returns t.
func (t *Tensor) Mul(u *Tensor) *Tensor {
	if len(t.Data) != len(u.Data) {
		panic("tensor: Mul size mismatch")
	}
	for i, v := range u.Data {
		t.Data[i] *= v
	}
	return t
}

// Scale multiplies every element of t by s and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaled accumulates s*u into t (axpy) and returns t.
func (t *Tensor) AddScaled(u *Tensor, s float32) *Tensor {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range u.Data {
		t.Data[i] += s * v
	}
	return t
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// AbsMean returns the mean absolute value of all elements.
func (t *Tensor) AbsMean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t.Data {
		s += math.Abs(float64(v))
	}
	return s / float64(len(t.Data))
}

// MaxAbs returns the maximum absolute element value.
func (t *Tensor) MaxAbs() float32 {
	m := float32(0)
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// MinMax returns the minimum and maximum element values.
func (t *Tensor) MinMax() (min, max float32) {
	if len(t.Data) == 0 {
		return 0, 0
	}
	min, max = t.Data[0], t.Data[0]
	for _, v := range t.Data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	best, idx := float32(math.Inf(-1)), 0
	for i, v := range t.Data {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

// ArgmaxRows treats t as [rows, cols] and returns the argmax of each row.
func (t *Tensor) ArgmaxRows() []int {
	if t.Rank() != 2 {
		panic("tensor: ArgmaxRows requires a rank-2 tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		best, idx := float32(math.Inf(-1)), 0
		for i, v := range row {
			if v > best {
				best, idx = v, i
			}
		}
		out[r] = idx
	}
	return out
}

// Transpose2D returns a new tensor that is the transpose of the rank-2 t.
func (t *Tensor) Transpose2D() *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Transpose2D requires a rank-2 tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := New(c, r)
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j*r+i] = v
		}
	}
	return out
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	if len(t.Data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elements, first=%v]", t.shape, len(t.Data), t.Data[:4])
}
