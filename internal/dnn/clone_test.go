package dnn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nocbt/internal/tensor"
)

func TestCloneForInferenceSharesWeights(t *testing.T) {
	m := LeNet(rand.New(rand.NewSource(1)))
	c := m.CloneForInference()
	if c == m {
		t.Fatal("clone returned the same model")
	}
	if c.Name() != m.Name() || len(c.Layers) != len(m.Layers) {
		t.Fatalf("clone shape mismatch: %s/%d vs %s/%d",
			c.Name(), len(c.Layers), m.Name(), len(m.Layers))
	}
	mc, ok1 := m.Layers[0].(*Conv2D)
	cc, ok2 := c.Layers[0].(*Conv2D)
	if !ok1 || !ok2 {
		t.Fatal("first LeNet layer is not Conv2D")
	}
	if mc.W != cc.W || mc.B != cc.B {
		t.Error("clone does not share conv parameter tensors")
	}
	if mc == cc {
		t.Error("clone shares the conv layer struct itself")
	}
}

func TestCloneForInferenceSameOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := LeNet(rng)
	x := tensor.New(1, 32, 32)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	want := m.Forward(x)
	got := m.CloneForInference().Forward(x)
	if len(want.Data) != len(got.Data) {
		t.Fatalf("output sizes differ: %d vs %d", len(want.Data), len(got.Data))
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("output %d differs: %v vs %v", i, want.Data[i], got.Data[i])
		}
	}
}

// TestCloneForInferenceConcurrent drives concurrent forward passes through
// independent clones of one model — exactly what the sweep runner does.
// Run with -race to prove the clones do not share mutable forward state.
func TestCloneForInferenceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := DarkNetTiny(rng)
	x := tensor.New(3, 64, 64)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	want := m.CloneForInference().Forward(x)

	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, 4)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = m.CloneForInference().Forward(x)
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		for j := range want.Data {
			if out.Data[j] != want.Data[j] {
				t.Fatalf("concurrent clone %d output %d differs", i, j)
			}
		}
	}
}

// TestCloneForInferenceAllocatesNoGradients: a clone owns only per-layer
// forward state. Its gradient tensors wait for the first Backward, Grads
// or ZeroGrads, so a clone that never trains allocates a sliver of what
// the gradients would take — the sweep clones a model per coding group and
// btserved per engine.
func TestCloneForInferenceAllocatesNoGradients(t *testing.T) {
	m := LeNet(rand.New(rand.NewSource(5)))
	gradBytes := 0
	for _, p := range m.Params() {
		gradBytes += 4 * p.Size()
	}
	const clones = 100
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	for range clones {
		cloneSink = m.CloneForInference()
	}
	runtime.ReadMemStats(&mem1)
	perClone := (mem1.TotalAlloc - mem0.TotalAlloc) / clones
	if perClone*100 > uint64(gradBytes) {
		t.Errorf("CloneForInference allocates %d bytes per clone; the gradients are %d bytes, budget 1%% of them", perClone, gradBytes)
	} else {
		t.Logf("%d bytes per clone, %d bytes of gradients", perClone, gradBytes)
	}
	for i, l := range cloneSink.Layers {
		switch l := l.(type) {
		case *Conv2D:
			if l.gradW != nil || l.gradB != nil {
				t.Errorf("clone layer %d (%s) holds gradient tensors", i, l.Name())
			}
		case *Linear:
			if l.gradW != nil || l.gradB != nil {
				t.Errorf("clone layer %d (%s) holds gradient tensors", i, l.Name())
			}
		}
	}
}

var cloneSink *Model
