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

	// gradW and gradB are nil in an inference clone until its first
	// Backward, Grads or ZeroGrads allocates them (see grads).
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
	// Row form: each output row starts at the bias, then one pass per
	// (ic, ky) adds that kernel row's terms. Every output receives its
	// float32 terms in (ic, ky, kx) order, the order of naiveConv2DForward
	// in the tests: trained weights and the goldens built on them depend on
	// it bit for bit.
	k, s, p := c.K, c.Stride, c.Pad
	oxLo, oxHi := interior(s, p, k, w, ow)
	wd, xd, od := c.W.Data, x.Data, out.Data
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B.Data[oc]
		for oy := 0; oy < oh; oy++ {
			oRow := od[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow]
			for i := range oRow {
				oRow[i] = bias
			}
			y0 := oy*s - p
			kyLo, kyHi := max(0, -y0), min(k, h-y0)
			for ic := 0; ic < c.InC; ic++ {
				wBase, xBase := (oc*c.InC+ic)*k*k, ic*h*w
				for ky := kyLo; ky < kyHi; ky++ {
					wRow := wd[wBase+ky*k : wBase+ky*k+k]
					xRow := xd[xBase+(y0+ky)*w : xBase+(y0+ky+1)*w]
					addRow(oRow, wRow, xRow, s, p, oxLo, oxHi)
				}
			}
		}
	}
	return out
}

// interior returns the outputs [lo, hi) of a row whose whole kernel window
// lies inside an input row of width w; the outputs outside it read padding.
func interior(s, p, k, w, ow int) (lo, hi int) {
	lo = min((p+s-1)/s, ow)
	if w+p-k >= 0 {
		hi = min((w+p-k)/s+1, ow)
	}
	return lo, max(lo, hi)
}

// addRow adds wRow[kx]·xRow[ox·s−p+kx] to every oRow[ox], in ascending kx,
// skipping the columns that fall in the padding. Outputs in [oxLo, oxHi)
// see the whole kernel row; at stride 1 they go in blocks of 8, 4 and 2
// with the accumulators in registers, each still summing in kx order.
func addRow(oRow, wRow, xRow []float32, s, p, oxLo, oxHi int) {
	ox := oxLo
	if s == 1 {
		for ; ox+8 <= oxHi; ox += 8 {
			o := oRow[ox : ox+8 : ox+8]
			a0, a1, a2, a3, a4, a5, a6, a7 := o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7]
			xs := xRow[ox-p:]
			for kx, wv := range wRow {
				x := xs[kx : kx+8 : kx+8]
				a0 += wv * x[0]
				a1 += wv * x[1]
				a2 += wv * x[2]
				a3 += wv * x[3]
				a4 += wv * x[4]
				a5 += wv * x[5]
				a6 += wv * x[6]
				a7 += wv * x[7]
			}
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = a0, a1, a2, a3, a4, a5, a6, a7
		}
		for ; ox+4 <= oxHi; ox += 4 {
			o := oRow[ox : ox+4 : ox+4]
			a0, a1, a2, a3 := o[0], o[1], o[2], o[3]
			xs := xRow[ox-p:]
			for kx, wv := range wRow {
				x := xs[kx : kx+4 : kx+4]
				a0 += wv * x[0]
				a1 += wv * x[1]
				a2 += wv * x[2]
				a3 += wv * x[3]
			}
			o[0], o[1], o[2], o[3] = a0, a1, a2, a3
		}
		for ; ox+2 <= oxHi; ox += 2 {
			o := oRow[ox : ox+2 : ox+2]
			a0, a1 := o[0], o[1]
			xs := xRow[ox-p:]
			for kx, wv := range wRow {
				x := xs[kx : kx+2 : kx+2]
				a0 += wv * x[0]
				a1 += wv * x[1]
			}
			o[0], o[1] = a0, a1
		}
	}
	// The left edge, the remainder of the blocks and the right edge, one
	// output at a time.
	for i := 0; i < oxLo; i++ {
		addOne(&oRow[i], wRow, xRow, i*s-p)
	}
	for ; ox < len(oRow); ox++ {
		addOne(&oRow[ox], wRow, xRow, ox*s-p)
	}
}

// addOne adds to *o the terms of the output whose kernel row starts at
// input column x0, in ascending kx, skipping the columns in the padding.
func addOne(o *float32, wRow, xRow []float32, x0 int) {
	a := *o
	for kx := max(0, -x0); kx < min(len(wRow), len(xRow)-x0); kx++ {
		a += wRow[kx] * xRow[x0+kx]
	}
	*o = a
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
	// The direct loop nest over the nonzero output gradients, with each
	// output's in-bounds kernel window computed once rather than tested per
	// term. gradB and gradW receive their terms in (oy, ox) order and gradIn
	// in (oc, oy, ox) order, the order of naiveConv2DBackward in the tests:
	// trained weights depend on it bit for bit.
	k, s, p := c.K, c.Stride, c.Pad
	wd, xd, gd := c.W.Data, x.Data, gradOut.Data
	gw, gb := c.grads()
	gi := gradIn.Data
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			y0 := oy*s - p
			kyLo, kyHi := max(0, -y0), min(k, h-y0)
			for ox, g := range gd[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow] {
				if g == 0 {
					continue
				}
				gb[oc] += g
				x0 := ox*s - p
				kxLo, kxHi := max(0, -x0), min(k, w-x0)
				if kxLo >= kxHi {
					continue
				}
				n := kxHi - kxLo
				for ic := 0; ic < c.InC; ic++ {
					wBase, xBase := (oc*c.InC+ic)*k*k+kxLo, ic*h*w+x0+kxLo
					for ky := kyLo; ky < kyHi; ky++ {
						wOff, xOff := wBase+ky*k, xBase+(y0+ky)*w
						gwRow, wRow := gw[wOff:wOff+n], wd[wOff:wOff+n]
						giRow, xRow := gi[xOff:xOff+n], xd[xOff:xOff+n]
						for i, xv := range xRow {
							gwRow[i] += g * xv
							giRow[i] += g * wRow[i]
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

// grads returns the gradient data, allocating the tensors on first use.
func (c *Conv2D) grads() (gw, gb []float32) {
	if c.gradW == nil {
		c.gradW = tensor.New(c.OutC, c.InC, c.K, c.K)
		c.gradB = tensor.New(c.OutC)
	}
	return c.gradW.Data, c.gradB.Data
}

// Grads implements Trainable.
func (c *Conv2D) Grads() []*tensor.Tensor {
	c.grads()
	return []*tensor.Tensor{c.gradW, c.gradB}
}

// ZeroGrads implements Trainable.
func (c *Conv2D) ZeroGrads() {
	gw, gb := c.grads()
	clear(gw)
	clear(gb)
}

var _ Trainable = (*Conv2D)(nil)
