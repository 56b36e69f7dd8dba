package dnn

import (
	"fmt"
	"math/rand"

	"nocbt/internal/tensor"
)

// Linear is a fully-connected layer: out = W·x + b.
//
// Weights have shape [Out, In]. Like Conv2D, each output neuron is one
// accelerator task carrying In (input, weight) pairs — the second
// order-insensitive layer type the paper's ordering exploits.
type Linear struct {
	In, Out int

	W *tensor.Tensor // [Out, In]
	B *tensor.Tensor // [Out]

	// gradW and gradB are nil in an inference clone until its first
	// Backward, Grads or ZeroGrads allocates them (see grads).
	gradW *tensor.Tensor
	gradB *tensor.Tensor
	input *tensor.Tensor
}

// NewLinear constructs a fully-connected layer with Kaiming-uniform weights.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("dnn: bad Linear geometry in=%d out=%d", in, out))
	}
	l := &Linear{
		In: in, Out: out,
		W:     tensor.New(out, in),
		B:     tensor.New(out),
		gradW: tensor.New(out, in),
		gradB: tensor.New(out),
	}
	l.W.KaimingUniform(in, rng)
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return fmt.Sprintf("linear(%d->%d)", l.In, l.Out) }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Size() != l.In {
		panic(fmt.Sprintf("dnn: %s got input of size %d", l.Name(), x.Size()))
	}
	l.input = x
	out := tensor.New(l.Out)
	for o := 0; o < l.Out; o++ {
		acc := l.B.Data[o]
		row := l.W.Data[o*l.In : (o+1)*l.In]
		for i, v := range x.Data {
			acc += row[i] * v
		}
		out.Data[o] = acc
	}
	return out
}

// Backward implements Trainable.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.input == nil {
		panic("dnn: Linear.Backward before Forward")
	}
	if gradOut.Size() != l.Out {
		panic(fmt.Sprintf("dnn: %s gradOut size %d", l.Name(), gradOut.Size()))
	}
	gradIn := tensor.New(l.In)
	gw, gb := l.grads()
	for o := 0; o < l.Out; o++ {
		g := gradOut.Data[o]
		gb[o] += g
		if g == 0 {
			continue
		}
		wRow := l.W.Data[o*l.In : (o+1)*l.In]
		gRow := gw[o*l.In : (o+1)*l.In]
		for i, v := range l.input.Data {
			gRow[i] += g * v
			gradIn.Data[i] += g * wRow[i]
		}
	}
	return gradIn
}

// Params implements Trainable.
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// grads returns the gradient data, allocating the tensors on first use.
func (l *Linear) grads() (gw, gb []float32) {
	if l.gradW == nil {
		l.gradW = tensor.New(l.Out, l.In)
		l.gradB = tensor.New(l.Out)
	}
	return l.gradW.Data, l.gradB.Data
}

// Grads implements Trainable.
func (l *Linear) Grads() []*tensor.Tensor {
	l.grads()
	return []*tensor.Tensor{l.gradW, l.gradB}
}

// ZeroGrads implements Trainable.
func (l *Linear) ZeroGrads() {
	gw, gb := l.grads()
	clear(gw)
	clear(gb)
}

var _ Trainable = (*Linear)(nil)
