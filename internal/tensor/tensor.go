// Package tensor implements a small dense N-dimensional array of float64
// values with the operations required to train convolutional neural
// networks: elementwise arithmetic, matrix multiplication, transposition,
// padding, and the batch-wide im2col lowering that turns convolution into
// matrix multiplication.
//
// Tensors are row-major and own their backing slice. Operations either
// return fresh tensors or, where documented, mutate the receiver in place.
// float64 was chosen over float32 so that analytic gradients can be checked
// against central finite differences to tight tolerances; the cost of the
// choice is measured in the benchmark suite.
package tensor

import (
	"fmt"
	"math"
	"strings"

	"github.com/stsl/stsl/internal/mathx"
)

// Tensor is a dense row-major N-dimensional array. The zero value is an
// empty tensor; use New or one of the constructors.
type Tensor struct {
	shape []int
	// stride[i] is the linear distance between consecutive indices along
	// dimension i.
	stride []int
	data   []float64
	// dtype tags the wire precision (see dtype.go). Storage is always
	// float64; the zero value Float64 preserves legacy behaviour.
	dtype DType
}

// New returns a zero-filled tensor with the given shape. A call with no
// dimensions returns a scalar tensor of one element. It panics if any
// dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
	t.stride = strides(t.shape)
	return t
}

// FromSlice returns a tensor with the given shape whose backing data is a
// copy of data. It panics when len(data) does not match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := New(shape...)
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)",
			len(data), shape, len(t.data)))
	}
	copy(t.data, data)
	return t
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Rand returns a tensor with elements drawn uniformly from [lo, hi).
func Rand(r *mathx.RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.Range(lo, hi)
	}
	return t
}

// Randn returns a tensor with elements drawn from N(0, stddev²).
func Randn(r *mathx.RNG, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.Norm() * stddev
	}
	return t
}

func strides(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; callers
// that need isolation must copy. The slice is row-major.
func (t *Tensor) Data() []float64 { return t.data }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// offset converts a multi-index to a linear offset, panicking on
// out-of-range indices.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.stride[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy of t, preserving its dtype tag.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	c.dtype = t.dtype
	return c
}

// CopyFrom copies o's data into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// Reshape returns a view-copy of t with a new shape of equal volume. One
// dimension may be -1, in which case it is inferred. The returned tensor
// shares no storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	resolved := append([]int(nil), shape...)
	infer := -1
	vol := 1
	for i, d := range resolved {
		switch {
		case d == -1:
			if infer != -1 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: Reshape negative dimension %d", d))
		default:
			vol *= d
		}
	}
	if infer != -1 {
		if vol == 0 || len(t.data)%vol != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		resolved[infer] = len(t.data) / vol
		vol *= resolved[infer]
	}
	if vol != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape volume mismatch %v to %v", t.shape, shape))
	}
	out := New(resolved...)
	copy(out.data, t.data)
	return out
}

// Zero sets every element of t to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element of t to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	const maxElems = 32
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= maxElems {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g … %g] (%d elems)", t.data[0], t.data[1], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}

// Equal reports whether t and o have the same shape and elementwise values
// within tol.
func (t *Tensor) Equal(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}
