package accel

import (
	"fmt"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

// nocLayer is one conv/linear layer decomposed into NoC tasks, one per
// output neuron: the codec that encodes its values (carrying the layer's
// quantization scales), where each task's (input, weight) pairs sit in the
// layer's tensors, and the shape the collected results reassemble into.
// Nothing is materialized per task: an MC gathers a segment's words
// straight from the tensors when it streams the segment out.
type nocLayer struct {
	name     string
	enc      codec
	outShape []int
	ntasks   int
	// conv is the convolution the tasks come from, nil for a linear layer;
	// h and w are its input height and width.
	conv *dnn.Conv2D
	h, w int
	// fanIn is a linear layer's input count: the pairs of every task.
	fanIn int
}

// newConvLayer decomposes a convolution layer into per-output-pixel tasks.
// The caller sets the codec (Engine.newCodec).
func newConvLayer(l *dnn.Conv2D, x *tensor.Tensor) (nocLayer, error) {
	if x.Rank() != 3 || x.Dim(0) != l.InC {
		return nocLayer{}, fmt.Errorf("input shape %v for %s", x.Shape(), l.Name())
	}
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := l.OutSize(h, w)
	return nocLayer{
		name: l.Name(), outShape: []int{l.OutC, oh, ow}, ntasks: l.OutC * oh * ow,
		conv: l, h: h, w: w,
	}, nil
}

// newLinearLayer decomposes a fully-connected layer into per-output tasks.
// The caller sets the codec (Engine.newCodec).
func newLinearLayer(l *dnn.Linear, x *tensor.Tensor) (nocLayer, error) {
	if x.Size() != l.In {
		return nocLayer{}, fmt.Errorf("input size %d for %s", x.Size(), l.Name())
	}
	return nocLayer{name: l.Name(), outShape: []int{l.Out}, ntasks: l.Out, fanIn: l.In}, nil
}

// window returns the kernel offsets [k0, k1) whose input coordinate
// start+k falls inside [0, size): the taps the zero padding does not cover.
func window(start, k, size int) (k0, k1 int) {
	k0, k1 = max(0, -start), min(k, size-start)
	return k0, max(k0, k1)
}

// convTask locates conv task ti — tasks run over output channel, then
// output row, then output column — and returns its output channel, the
// input coordinates of its kernel's top-left tap, and its kernel window.
func (nl *nocLayer) convTask(ti int) (oc, y0, x0, ky0, ky1, kx0, kx1 int) {
	c := nl.conv
	oh, ow := nl.outShape[1], nl.outShape[2]
	oc, oy, ox := ti/(oh*ow), ti/ow%oh, ti%ow
	y0, x0 = oy*c.Stride-c.Pad, ox*c.Stride-c.Pad
	ky0, ky1 = window(y0, c.K, nl.h)
	kx0, kx1 = window(x0, c.K, nl.w)
	return oc, y0, x0, ky0, ky1, kx0, kx1
}

// pairs returns task ti's (input, weight) pair count.
func (nl *nocLayer) pairs(ti int) int {
	if nl.conv == nil {
		return nl.fanIn
	}
	_, _, _, ky0, ky1, kx0, kx1 := nl.convTask(ti)
	return nl.conv.InC * (ky1 - ky0) * (kx1 - kx0)
}

// bias returns task ti's encoded bias word.
func (nl *nocLayer) bias(ti int) bitutil.Word {
	if nl.conv == nil {
		return nl.enc.biasWord(ti)
	}
	return nl.enc.biasWord(ti / (nl.outShape[1] * nl.outShape[2]))
}

// gather encodes pairs [lo, lo+len(ws)) of task ti into ws (weights) and
// xs (inputs). A conv task's pairs run over input channel, then kernel
// row, then kernel column, skipping taps in the zero padding; a linear
// task's over its inputs.
func (nl *nocLayer) gather(ti, lo int, ws, xs []bitutil.Word) {
	enc := &nl.enc
	if nl.conv == nil {
		row := ti*nl.fanIn + lo
		for i := range ws {
			ws[i] = enc.weightWord(row + i)
			xs[i] = enc.actWord(lo + i)
		}
		return
	}
	c := nl.conv
	oc, y0, x0, ky0, ky1, kx0, kx1 := nl.convTask(ti)
	nkx := kx1 - kx0
	ic, r := lo/((ky1-ky0)*nkx), lo%((ky1-ky0)*nkx)
	ky, kx := ky0+r/nkx, kx0+r%nkx
	// Row-major offsets into W [OutC, InC, K, K] and x [InC, h, w], stepped
	// past the padding taps at the end of each kernel row and channel.
	wi := ((oc*c.InC+ic)*c.K+ky)*c.K + kx
	xi := (ic*nl.h+y0+ky)*nl.w + x0 + kx
	nky := ky1 - ky0
	for i := range ws {
		ws[i] = enc.weightWord(wi)
		xs[i] = enc.actWord(xi)
		wi++
		xi++
		if kx++; kx == kx1 {
			kx = kx0
			wi += c.K - nkx
			xi += nl.w - nkx
			if ky++; ky == ky1 {
				ky = ky0
				wi += (c.K - nky) * c.K
				xi += (nl.h - nky) * nl.w
			}
		}
	}
}
