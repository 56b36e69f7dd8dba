package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"nocbt/internal/accel"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// benchModel is the layer-heavy small model from the accel batch suite:
// short NoC layers whose tails (mesh latency + PE compute) dominate — the
// serving regime micro-batching targets.
func benchModel(rng *rand.Rand) *dnn.Model {
	return &dnn.Model{
		ModelName: "bench",
		InShape:   []int{1, 12, 12},
		Layers: []dnn.Layer{
			dnn.NewConv2D(1, 4, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewConv2D(4, 8, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewFlatten(),
			dnn.NewLinear(8*3*3, 10, rng),
		},
	}
}

// benchPlatform is the compute-bound configuration the repository's batch
// throughput claims are made on: 8×8 mesh, 8 MCs, 64-cycle PEs, pipelined
// layer mode so micro-batches share the mesh.
func benchPlatform() accel.Config {
	g, err := flit.FixedGeometry(8)
	if err != nil {
		panic(err)
	}
	cfg := accel.Mesh8x8MC8(g)
	cfg.PEComputeCycles = 64
	cfg.LayerMode = accel.PipelinedLayers
	return cfg
}

// BenchmarkServeInfer drives the pool + micro-batcher with concurrent
// requests and compares the single path (maxBatch 1: one engine call per
// request, the pre-serving status quo) against the micro-batched path.
// ns/op is wall time for requestsPerIter requests; the reported
// cycles/inference and inf/kcycle metrics are the simulated-hardware
// throughput, where micro-batching's mesh sharing pays (the simulator's
// wall time is work-invariant, so the win shows in simulated cycles).
func BenchmarkServeInfer(b *testing.B) {
	const requestsPerIter = 16
	run := func(b *testing.B, maxBatch int) {
		model := benchModel(rand.New(rand.NewSource(1)))
		inputs := make([]*tensor.Tensor, requestsPerIter)
		for i := range inputs {
			x := tensor.New(model.InShape...)
			x.Uniform(0, 1, rand.New(rand.NewSource(int64(i))))
			inputs[i] = x
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pool := NewPool(1, nil)
		shard := pool.Shard("bench", func() (Engine, error) {
			return accel.New(benchPlatform(), model.CloneForInference())
		})
		batcher := NewBatcher(ctx, shard, maxBatch, nil)

		// Warm the engine so the lazy build is outside the timer.
		if _, _, _, err := batcher.Do(ctx, inputs[0]); err != nil {
			b.Fatal(err)
		}
		eng, release, err := shard.Acquire(ctx)
		if err != nil {
			b.Fatal(err)
		}
		startCycles := eng.(*accel.Engine).Cycles()
		release()

		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			var wg sync.WaitGroup
			for _, in := range inputs {
				wg.Add(1)
				go func(x *tensor.Tensor) {
					defer wg.Done()
					if _, _, _, err := batcher.Do(ctx, x); err != nil {
						b.Error(err)
					}
				}(in)
			}
			wg.Wait()
		}
		b.StopTimer()

		eng, release, err = shard.Acquire(ctx)
		if err != nil {
			b.Fatal(err)
		}
		cycles := eng.(*accel.Engine).Cycles() - startCycles
		release()
		inferences := float64(b.N * requestsPerIter)
		b.ReportMetric(float64(cycles)/inferences, "cycles/inference")
		b.ReportMetric(inferences*1000/float64(cycles), "inf/kcycle")
		b.ReportMetric(inferences/b.Elapsed().Seconds(), "req/s")
	}
	b.Run("single", func(b *testing.B) { run(b, 1) })
	b.Run("microbatch", func(b *testing.B) { run(b, requestsPerIter) })
}
