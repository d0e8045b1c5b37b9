// Package tensor provides the dense float64 tensors underlying the 3DGNN and
// its training stack (the reproduction's stand-in for torch tensors). Only
// the operations the model needs are implemented, but each is implemented
// carefully: shape-checked, allocation-conscious, and tested against
// reference computations.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"analogfold/internal/fault"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
//
// It panics on a negative dimension: shapes originate in code, not input, so
// a bad one is a programming error (input-derived shapes go through TryNew).
func New(shape ...int) *Tensor {
	t, err := TryNew(shape...)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// TryNew is New for input-derived shapes: it returns a typed
// fault.ErrInvalidInput error instead of panicking.
func TryNew(shape ...int) (*Tensor, error) {
	n, err := checkedLen(shape)
	if err != nil {
		return nil, err
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}, nil
}

// checkedLen validates a shape and returns its element count, rejecting
// negative dimensions and products that overflow int — without the overflow
// check a pair of huge dimensions can wrap the product into a small (or
// negative) count and either crash make or smuggle an absurd shape past the
// length check.
func checkedLen(shape []int) (int, error) {
	n := 1
	for _, s := range shape {
		if s < 0 {
			return 0, fault.New(fault.StageEvaluation, fault.ErrInvalidInput,
				"tensor: negative dimension %v", shape)
		}
		if s > 0 && n > math.MaxInt/s {
			return 0, fault.New(fault.StageEvaluation, fault.ErrInvalidInput,
				"tensor: shape %v element count overflows", shape)
		}
		n *= s
	}
	return n, nil
}

// FromSlice wraps data in a tensor of the given shape (no copy).
//
// It panics on a length mismatch: like New, it is for code-originated
// shapes. Deserialized data goes through TryFromSlice.
func FromSlice(data []float64, shape ...int) *Tensor {
	t, err := TryFromSlice(data, shape...)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// TryFromSlice is FromSlice for input-derived data (JSON datasets, parsed
// artifacts): it returns a typed fault.ErrInvalidInput error instead of
// panicking when the shape is negative or does not cover the data.
func TryFromSlice(data []float64, shape ...int) (*Tensor, error) {
	n, err := checkedLen(shape)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fault.New(fault.StageEvaluation, fault.ErrInvalidInput,
			"tensor: %v needs %d elements, got %d", shape, n, len(data))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Len returns the total element count.
func (t *Tensor) Len() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Rows and Cols apply to 2-D tensors.
func (t *Tensor) Rows() int { return t.Shape[0] }

// Cols returns the second dimension of a 2-D tensor.
func (t *Tensor) Cols() int { return t.Shape[1] }

// At returns the element of a 2-D tensor.
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Shape[1]+j] }

// Set writes the element of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Shape[1]+j] = v }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{Shape: append([]int(nil), t.Shape...), Data: append([]float64(nil), t.Data...)}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Zero resets all elements.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with N(0, std) noise.
func (t *Tensor) Randn(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// MatMul computes out = a @ b for 2-D tensors; out may be nil.
//
// The shape-mismatch panics in the MatMul kernels are deliberate
// invariant checks, not input validation: operand shapes are fixed by the
// network architecture at construction time, so a mismatch here is a wiring
// bug in model code that no caller could meaningfully recover from.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a @ b into a caller-owned tensor, zeroing out
// first. The kernel (accumulation order, the zero-row skip) is byte-for-byte
// the one MatMul always used, so Into reuse is bit-identical to allocation.
func MatMulInto(out, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul out shape %v, want [%d %d]", out.Shape, m, n))
	}
	out.Zero()
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatMulATBInto computes out = aᵀ @ b (used by backprop) into a
// caller-owned tensor, zeroing out first.
func MatMulATBInto(out, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[1], a.Shape[0], b.Shape[1]
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulATB out shape %v, want [%d %d]", out.Shape, m, n))
	}
	out.Zero()
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatMulABTInto computes out = a @ bᵀ (used by backprop) into a
// caller-owned tensor (every element is assigned, so no zeroing is needed).
func MatMulABTInto(out, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulABT shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulABT out shape %v, want [%d %d]", out.Shape, m, n))
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

// Apply returns a new tensor with f applied elementwise.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInto writes f applied elementwise over src into a caller-owned dst of
// the same element count.
func ApplyInto(dst, src *Tensor, f func(float64) float64) {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: applyInto length mismatch %v vs %v", dst.Shape, src.Shape))
	}
	for i, v := range src.Data {
		dst.Data[i] = f(v)
	}
}

// Norm returns the L2 norm of all elements.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
