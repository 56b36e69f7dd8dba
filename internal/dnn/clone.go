package dnn

import "fmt"

// CloneForInference returns a model that shares this model's parameter
// tensors (weights and biases) but owns fresh per-layer forward state.
//
// Layers cache forward-pass state for Backward (ReLU masks, pooling argmax,
// cached inputs), so a single Model must not run concurrent inferences. The
// clone makes that safe: any number of clones of the same model can Infer
// concurrently, because parameters are only read during inference while the
// mutable caches are per-clone. A clone allocates no gradient tensors until
// it trains: training a clone is also safe — its gradients are its own —
// but updates through shared parameter tensors would be visible to every
// clone, so train at most one instance at a time.
func (m *Model) CloneForInference() *Model {
	out := &Model{
		ModelName: m.ModelName,
		InShape:   append([]int(nil), m.InShape...),
		Layers:    make([]Layer, len(m.Layers)),
	}
	for i, l := range m.Layers {
		out.Layers[i] = cloneLayerForInference(l)
	}
	return out
}

// cloneLayerForInference builds a fresh layer sharing l's parameters.
func cloneLayerForInference(l Layer) Layer {
	switch t := l.(type) {
	case *Conv2D:
		return &Conv2D{
			InC: t.InC, OutC: t.OutC, K: t.K, Stride: t.Stride, Pad: t.Pad,
			W: t.W, B: t.B,
		}
	case *Linear:
		return &Linear{
			In: t.In, Out: t.Out,
			W: t.W, B: t.B,
		}
	case *ReLU:
		return NewReLU()
	case *MaxPool2:
		return NewMaxPool2()
	case *Flatten:
		return NewFlatten()
	case *GlobalAvgPool:
		return NewGlobalAvgPool()
	default:
		panic(fmt.Sprintf("dnn: cannot clone layer %T for inference", l))
	}
}
