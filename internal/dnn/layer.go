// Package dnn implements the DNN substrate the paper's accelerator runs:
// convolution, fully-connected, pooling and activation layers, plus the two
// evaluated models (LeNet-5 and a DarkNet-like network with 64×64×3 input).
//
// Layers operate on single samples in CHW layout (no batch dimension); the
// accelerator dispatches one inference at a time, which is also how the
// paper's NocDAS experiments run. Trainable layers additionally implement
// backpropagation so the repository can produce genuinely *trained* weights
// (see internal/train) — the paper's experiments distinguish random from
// trained weight distributions.
package dnn

import (
	"fmt"
	"slices"

	"nocbt/internal/tensor"
)

// Layer is one stage of a model's forward pass.
type Layer interface {
	// Forward computes the layer output for input x. Trainable layers may
	// cache x for a subsequent Backward call.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Name returns a short human-readable layer description.
	Name() string
}

// Trainable is a layer that supports backpropagation.
type Trainable interface {
	Layer
	// Backward consumes the gradient w.r.t. the layer output and returns the
	// gradient w.r.t. the layer input, accumulating parameter gradients.
	// Forward must have been called first.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the parameter tensors (shared, not copied).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors matching Params element-wise.
	Grads() []*tensor.Tensor
	// ZeroGrads clears all parameter gradients.
	ZeroGrads()
}

// ReLU is the rectified-linear activation, applied element-wise.
type ReLU struct {
	// mask is true where the latest Forward's input was > 0, cached for
	// Backward; each Forward rewrites it in place, growing it only for a
	// larger input.
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	n := x.Size()
	r.mask = slices.Grow(r.mask[:0], n)[:n]
	for i, v := range x.Data {
		pos := v > 0
		if pos {
			out.Data[i] = v
		}
		r.mask[i] = pos
	}
	return out
}

// Backward implements Trainable (ReLU has no parameters).
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("dnn: ReLU.Backward before Forward")
	}
	if len(r.mask) != gradOut.Size() {
		panic(fmt.Sprintf("dnn: ReLU gradient size %d does not match cached input %d",
			gradOut.Size(), len(r.mask)))
	}
	gradIn := tensor.New(gradOut.Shape()...)
	for i, m := range r.mask {
		if m {
			gradIn.Data[i] = gradOut.Data[i]
		}
	}
	return gradIn
}

// Params implements Trainable.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Trainable.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Trainable.
func (r *ReLU) ZeroGrads() {}

// Flatten reshapes a CHW tensor into a flat vector. It sits between the
// convolutional trunk and the fully-connected head.
type Flatten struct {
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append([]int(nil), x.Shape()...)
	return x.Reshape(x.Size())
}

// Backward implements Trainable.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("dnn: Flatten.Backward before Forward")
	}
	return gradOut.Reshape(f.inShape...)
}

// Params implements Trainable.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Trainable.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Trainable.
func (f *Flatten) ZeroGrads() {}

// MaxPool2 is a 2×2, stride-2 max pooling layer over CHW input. Each
// Forward rewrites the cached input shape and argmax in place, growing
// argmax only for a larger input.
type MaxPool2 struct {
	inShape []int
	argmax  []int // flat input index of each output's maximum
}

// NewMaxPool2 returns a 2×2/stride-2 max-pooling layer.
func NewMaxPool2() *MaxPool2 { return &MaxPool2{} }

// Name implements Layer.
func (p *MaxPool2) Name() string { return "maxpool2" }

// Forward implements Layer.
func (p *MaxPool2) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("dnn: MaxPool2 wants CHW input, got rank %d", x.Rank()))
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("dnn: MaxPool2 input %dx%d not even", h, w))
	}
	oh, ow := h/2, w/2
	out := tensor.New(c, oh, ow)
	p.inShape = append(p.inShape[:0], c, h, w)
	p.argmax = slices.Grow(p.argmax[:0], out.Size())[:out.Size()]
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(0)
				bestIdx := -1
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						idx := (ci*h+oy*2+dy)*w + ox*2 + dx
						if bestIdx == -1 || x.Data[idx] > best {
							best = x.Data[idx]
							bestIdx = idx
						}
					}
				}
				oIdx := (ci*oh+oy)*ow + ox
				out.Data[oIdx] = best
				p.argmax[oIdx] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Trainable.
func (p *MaxPool2) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("dnn: MaxPool2.Backward before Forward")
	}
	gradIn := tensor.New(p.inShape...)
	for oIdx, inIdx := range p.argmax {
		gradIn.Data[inIdx] += gradOut.Data[oIdx]
	}
	return gradIn
}

// Params implements Trainable.
func (p *MaxPool2) Params() []*tensor.Tensor { return nil }

// Grads implements Trainable.
func (p *MaxPool2) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Trainable.
func (p *MaxPool2) ZeroGrads() {}

// GlobalAvgPool averages each channel of a CHW tensor to a single value,
// producing a length-C vector. Used as the DarkNet-like model's head.
type GlobalAvgPool struct {
	inShape []int
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return "gavgpool" }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("dnn: GlobalAvgPool wants CHW input, got rank %d", x.Rank()))
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	g.inShape = []int{c, h, w}
	out := tensor.New(c)
	area := float32(h * w)
	for ci := 0; ci < c; ci++ {
		sum := float32(0)
		for _, v := range x.Data[ci*h*w : (ci+1)*h*w] {
			sum += v
		}
		out.Data[ci] = sum / area
	}
	return out
}

// Backward implements Trainable.
func (g *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
		panic("dnn: GlobalAvgPool.Backward before Forward")
	}
	c, h, w := g.inShape[0], g.inShape[1], g.inShape[2]
	gradIn := tensor.New(c, h, w)
	area := float32(h * w)
	for ci := 0; ci < c; ci++ {
		gv := gradOut.Data[ci] / area
		plane := gradIn.Data[ci*h*w : (ci+1)*h*w]
		for i := range plane {
			plane[i] = gv
		}
	}
	return gradIn
}

// Params implements Trainable.
func (g *GlobalAvgPool) Params() []*tensor.Tensor { return nil }

// Grads implements Trainable.
func (g *GlobalAvgPool) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Trainable.
func (g *GlobalAvgPool) ZeroGrads() {}

// Interface compliance checks.
var (
	_ Trainable = (*ReLU)(nil)
	_ Trainable = (*Flatten)(nil)
	_ Trainable = (*MaxPool2)(nil)
	_ Trainable = (*GlobalAvgPool)(nil)
)
