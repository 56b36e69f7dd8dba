package accel

import (
	"fmt"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

// taskSpec is one output neuron's work: encoded (input, weight) pairs plus
// the encoded bias word.
type taskSpec struct {
	inputs  []bitutil.Word
	weights []bitutil.Word
	bias    bitutil.Word
}

// nocLayer is one conv/linear layer decomposed into NoC tasks: the specs,
// the codec that encoded them (carrying the layer's quantization scales),
// and the shape the collected results reassemble into.
type nocLayer struct {
	name     string
	tasks    []taskSpec
	enc      codec
	outShape []int
}

// buildConvTasks decomposes a convolution layer into per-output-pixel
// tasks, encoding every value at the layer's lane format.
func buildConvTasks(format bitutil.Format, l *dnn.Conv2D, x *tensor.Tensor) (nocLayer, error) {
	if x.Rank() != 3 || x.Dim(0) != l.InC {
		return nocLayer{}, fmt.Errorf("input shape %v for %s", x.Shape(), l.Name())
	}
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := l.OutSize(h, w)
	c, err := newCodec(format, l.W.Data, x.Data, l.B.Data)
	if err != nil {
		return nocLayer{}, err
	}

	tasks := make([]taskSpec, 0, l.OutC*oh*ow)
	for oc := 0; oc < l.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				n := l.InC * l.K * l.K
				t := taskSpec{
					inputs:  make([]bitutil.Word, 0, n),
					weights: make([]bitutil.Word, 0, n),
					bias:    c.biasWord(oc),
				}
				// Row-major offsets into W [OutC, InC, K, K] and x [InC, h, w].
				for ic := 0; ic < l.InC; ic++ {
					for ky := 0; ky < l.K; ky++ {
						iy := oy*l.Stride - l.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						wOff, xOff := ((oc*l.InC+ic)*l.K+ky)*l.K, (ic*h+iy)*w
						for kx := 0; kx < l.K; kx++ {
							ix := ox*l.Stride - l.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							t.weights = append(t.weights, c.weightWord(wOff+kx))
							t.inputs = append(t.inputs, c.actWord(xOff+ix))
						}
					}
				}
				tasks = append(tasks, t)
			}
		}
	}
	return nocLayer{name: l.Name(), tasks: tasks, enc: c, outShape: []int{l.OutC, oh, ow}}, nil
}

// buildLinearTasks decomposes a fully-connected layer into per-output
// tasks, encoding every value at the layer's lane format.
func buildLinearTasks(format bitutil.Format, l *dnn.Linear, x *tensor.Tensor) (nocLayer, error) {
	if x.Size() != l.In {
		return nocLayer{}, fmt.Errorf("input size %d for %s", x.Size(), l.Name())
	}
	c, err := newCodec(format, l.W.Data, x.Data, l.B.Data)
	if err != nil {
		return nocLayer{}, err
	}
	tasks := make([]taskSpec, l.Out)
	for o := 0; o < l.Out; o++ {
		t := taskSpec{
			inputs:  make([]bitutil.Word, l.In),
			weights: make([]bitutil.Word, l.In),
			bias:    c.biasWord(o),
		}
		for i := 0; i < l.In; i++ {
			t.weights[i] = c.weightWord(o*l.In + i)
			t.inputs[i] = c.actWord(i)
		}
		tasks[o] = t
	}
	return nocLayer{name: l.Name(), tasks: tasks, enc: c, outShape: []int{l.Out}}, nil
}
