package dnn

import (
	"fmt"
	"math/rand"

	"nocbt/internal/tensor"
)

// Conv2D is a standard 2-D convolution over CHW input.
//
// Weights have shape [OutC, InC, K, K]; bias has shape [OutC]. The layer is
// the unit of traffic in the accelerator: each output activation becomes one
// task whose K·K·InC (input, weight) pairs travel through the NoC, which is
// exactly the data the paper's ordering unit reorders.
type Conv2D struct {
	InC, OutC int
	K         int // square kernel side
	Stride    int
	Pad       int

	W *tensor.Tensor // [OutC, InC, K, K]
	B *tensor.Tensor // [OutC]

	gradW *tensor.Tensor
	gradB *tensor.Tensor
	input *tensor.Tensor // cached for Backward
}

// NewConv2D constructs a convolution layer with Kaiming-uniform weights.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("dnn: bad Conv2D geometry inC=%d outC=%d k=%d stride=%d pad=%d",
			inC, outC, k, stride, pad))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:     tensor.New(outC, inC, k, k),
		B:     tensor.New(outC),
		gradW: tensor.New(outC, inC, k, k),
		gradB: tensor.New(outC),
	}
	c.W.KaimingUniform(inC*k*k, rng)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,s%d,p%d)", c.K, c.K, c.InC, c.OutC, c.Stride, c.Pad)
}

// OutSize returns the spatial output size for an input of h×w.
func (c *Conv2D) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*c.Pad-c.K)/c.Stride + 1
	ow = (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(0) != c.InC {
		panic(fmt.Sprintf("dnn: %s got input %v", c.Name(), x.Shape()))
	}
	c.input = x
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("dnn: %s input %dx%d too small", c.Name(), h, w))
	}
	out := tensor.New(c.OutC, oh, ow)
	// Direct offsets into the row-major Data of W [OutC, InC, K, K],
	// x [InC, h, w] and out [OutC, oh, ow]. The float32 accumulation order
	// (ic, ky, kx) must not change: trained weights and the goldens built on
	// them depend on it bit for bit.
	k := c.K
	wd, xd, od := c.W.Data, x.Data, out.Data
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B.Data[oc]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bias
				for ic := 0; ic < c.InC; ic++ {
					wBase, xBase := (oc*c.InC+ic)*k*k, ic*h*w
					for ky := 0; ky < k; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						wRow := wd[wBase+ky*k : wBase+ky*k+k]
						xRow := xd[xBase+iy*w : xBase+iy*w+w]
						for kx := range wRow {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += wRow[kx] * xRow[ix]
						}
					}
				}
				od[(oc*oh+oy)*ow+ox] = acc
			}
		}
	}
	return out
}

// Backward implements Trainable.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.input == nil {
		panic("dnn: Conv2D.Backward before Forward")
	}
	x := c.input
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	if gradOut.Dim(0) != c.OutC || gradOut.Dim(1) != oh || gradOut.Dim(2) != ow {
		panic(fmt.Sprintf("dnn: %s gradOut %v, want [%d %d %d]",
			c.Name(), gradOut.Shape(), c.OutC, oh, ow))
	}
	gradIn := tensor.New(c.InC, h, w)
	k := c.K
	wd, xd, gd := c.W.Data, x.Data, gradOut.Data
	gw, gi := c.gradW.Data, gradIn.Data
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := gd[(oc*oh+oy)*ow+ox]
				if g == 0 {
					continue
				}
				c.gradB.Data[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					wBase, xBase := (oc*c.InC+ic)*k*k, ic*h*w
					for ky := 0; ky < k; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						wOff, xOff := wBase+ky*k, xBase+iy*w
						for kx := 0; kx < k; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							gw[wOff+kx] += g * xd[xOff+ix]
							gi[xOff+ix] += g * wd[wOff+kx]
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Params implements Trainable.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Trainable.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// ZeroGrads implements Trainable.
func (c *Conv2D) ZeroGrads() {
	c.gradW.Fill(0)
	c.gradB.Fill(0)
}

var _ Trainable = (*Conv2D)(nil)
