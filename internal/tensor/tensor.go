// Package tensor provides the minimal dense float32 tensor used by the DNN
// substrate: shapes, indexing, and the weight initializers whose bit-level
// statistics the paper's experiments depend on.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New to allocate one with a shape.
type Tensor struct {
	shape   []int
	strides []int
	// Data is the backing storage in row-major order. Exposed because the
	// flit/ordering pipeline consumes raw value streams.
	Data []float32
}

// New allocates a zero-filled tensor. Every dimension must be positive.
func New(shape ...int) *Tensor {
	size := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		size *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  make([]float32, size),
	}
	t.strides = computeStrides(t.shape)
	return t
}

// FromSlice wraps data in a tensor of the given shape. The data is not
// copied. The length must match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	size := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		size *= d
	}
	if len(data) != size {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), shape, size))
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		Data:  data,
	}
	t.strides = computeStrides(t.shape)
	return t
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	s := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = s
		s *= shape[i]
	}
	return strides
}

// Shape returns the tensor shape. Callers must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total element count.
func (t *Tensor) Size() int { return len(t.Data) }

// Index converts multi-dimensional indices to the flat offset.
func (t *Tensor) Index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.Index(idx...)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.Index(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape of identical volume, sharing the
// backing data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	size := 1
	for _, d := range shape {
		size *= d
	}
	if size != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.Data), shape, size))
	}
	return FromSlice(t.Data, shape...)
}

// MaxAbs returns the maximum absolute value; 0 for an all-zero tensor.
func (t *Tensor) MaxAbs() float32 {
	m := float32(0)
	for _, v := range t.Data {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}

// KaimingUniform fills t with the standard He/Kaiming uniform initialization
// U(-b, b), b = sqrt(6 / fanIn). This is what the paper calls "randomly
// initialized weights": the distribution an untrained network starts from.
func (t *Tensor) KaimingUniform(fanIn int, rng *rand.Rand) {
	if fanIn <= 0 {
		panic(fmt.Sprintf("tensor: non-positive fanIn %d", fanIn))
	}
	bound := float32(math.Sqrt(6 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * bound
	}
}

// Uniform fills t with U(lo, hi).
func (t *Tensor) Uniform(lo, hi float32, rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = lo + rng.Float32()*(hi-lo)
	}
}

// Normal fills t with N(mean, std²) samples.
func (t *Tensor) Normal(mean, std float32, rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = mean + std*float32(rng.NormFloat64())
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddScaled adds s*other element-wise in place.
func (t *Tensor) AddScaled(other *Tensor, s float32) {
	if len(other.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: AddScaled size mismatch %d vs %d", len(t.Data), len(other.Data)))
	}
	for i := range t.Data {
		t.Data[i] += s * other.Data[i]
	}
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
