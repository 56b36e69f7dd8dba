package accel

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// microNet is a small, layer-heavy model whose NoC layers are short enough
// that layer tails (mesh latency + PE compute) dominate — the regime where
// batching pays.
func microNet(rng *rand.Rand) *dnn.Model {
	return &dnn.Model{
		ModelName: "micro",
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

// batchPlatform is the compute-bound configuration the throughput claims
// are made on: 8×8 mesh, 8 MCs, and a PE that needs one cycle per MAC of a
// full segment rather than the 4-cycle default.
func batchPlatform() Config {
	cfg := Mesh8x8MC8(paperFixed8)
	cfg.PEComputeCycles = 64
	return cfg
}

// pipelinedPlatform is batchPlatform with concurrent flows enabled.
func pipelinedPlatform() Config {
	cfg := batchPlatform()
	cfg.LayerMode = PipelinedLayers
	return cfg
}

func batchInputs(m *dnn.Model, n int, seed int64) []*tensor.Tensor {
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		x := tensor.New(m.InShape...)
		x.Uniform(0, 1, rand.New(rand.NewSource(seed+int64(i))))
		inputs[i] = x
	}
	return inputs
}

// TestInferBatchMatchesSerial is the core batched-vs-serial contract, for
// both float-32 and fixed-8 and all three orderings:
//
//   - under the paper-faithful SerialLayers default, InferBatch is the
//     serial execution: outputs, BT and cycles all bit-identical to N
//     Infer calls;
//   - under PipelinedLayers the batch interleaves every inference's
//     packets on the mesh, and the outputs must still be bit-identical
//     (BT/cycles legitimately differ — that is the measured effect).
func TestInferBatchMatchesSerial(t *testing.T) {
	for _, g := range []flit.Geometry{paperFloat32, paperFixed8} {
		for _, ord := range flit.Orderings() {
			m := microNet(rand.New(rand.NewSource(31)))
			inputs := batchInputs(m, 6, 32)

			cfg := Mesh8x8MC8(g)
			cfg.Ordering = ord
			serialEng, err := New(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*tensor.Tensor, len(inputs))
			for i, in := range inputs {
				if want[i], err = serialEng.Infer(context.Background(), in); err != nil {
					t.Fatalf("%s/%s serial infer %d: %v", g.Format, ord, i, err)
				}
			}

			check := func(mode LayerMode, wantBT, wantCycles bool) {
				mcfg := cfg
				mcfg.LayerMode = mode
				batchEng := mustNew(t, mcfg, m)
				got, err := batchEng.InferBatch(context.Background(), inputs)
				if err != nil {
					t.Fatalf("%s/%s/%s InferBatch: %v", g.Format, ord, mode, err)
				}
				for i := range want {
					for j := range want[i].Data {
						if got[i].Data[j] != want[i].Data[j] {
							t.Fatalf("%s/%s/%s batch output[%d][%d] = %v, serial = %v (bit-identity broken)",
								g.Format, ord, mode, i, j, got[i].Data[j], want[i].Data[j])
						}
					}
				}
				if wantBT && batchEng.TotalBT() != serialEng.TotalBT() {
					t.Fatalf("%s/%s/%s batch BT %d != serial BT %d",
						g.Format, ord, mode, batchEng.TotalBT(), serialEng.TotalBT())
				}
				if wantCycles && batchEng.Cycles() != serialEng.Cycles() {
					t.Fatalf("%s/%s/%s batch cycles %d != serial cycles %d",
						g.Format, ord, mode, batchEng.Cycles(), serialEng.Cycles())
				}
			}
			check(SerialLayers, true, true)
			check(PipelinedLayers, false, false)
		}
	}
}

// TestInferBatchThroughput pins the acceptance bar: on the compute-bound
// platform a PipelinedLayers batch of 8 must finish in at most 1/1.5 of
// the simulated cycles that 8 serial inferences need. Cycle counts are
// deterministic, so this is an exact regression gate, not a flaky timing
// test.
func TestInferBatchThroughput(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(33)))
	inputs := batchInputs(m, 8, 34)

	serialEng := mustNew(t, batchPlatform(), m)
	for i, in := range inputs {
		if _, err := serialEng.Infer(context.Background(), in); err != nil {
			t.Fatalf("serial infer %d: %v", i, err)
		}
	}
	serialCycles := serialEng.Cycles()

	batchEng := mustNew(t, pipelinedPlatform(), m)
	if _, err := batchEng.InferBatch(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	st := batchEng.LastBatchStats()
	if st.Cycles <= 0 || st.Inferences != 8 {
		t.Fatalf("bad batch stats: %+v", st)
	}
	speedup := float64(serialCycles) / float64(st.Cycles)
	t.Logf("serial %d cycles, batch %d cycles, speedup %.2fx, throughput %.3f inf/kcycle",
		serialCycles, st.Cycles, speedup, st.Throughput())
	if speedup < 1.5 {
		t.Errorf("batch speedup %.2fx below the 1.5x acceptance bar (serial %d, batch %d cycles)",
			speedup, serialCycles, st.Cycles)
	}
	// Latency accounting must be self-consistent.
	if int64(st.AvgLatencyCycles) > st.MaxLatencyCycles || st.MaxLatencyCycles > st.Cycles {
		t.Errorf("inconsistent latency stats: %+v", st)
	}
	for i, ps := range st.PerInference {
		if ps.Index != i || ps.LatencyCycles() <= 0 {
			t.Errorf("per-inference stat %d malformed: %+v", i, ps)
		}
	}
}

// TestInferBatchPipelinedLayers checks the PipelinedLayers mode still
// produces bit-identical outputs (the drain checkpoint is a timing-only
// difference) and that batch stats are recorded.
func TestInferBatchPipelinedLayers(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(35)))
	inputs := batchInputs(m, 3, 36)

	cfg := batchPlatform()
	cfg.LayerMode = PipelinedLayers
	eng := mustNew(t, cfg, m)
	got, err := eng.InferBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}

	ref := mustNew(t, batchPlatform(), m)
	for i, in := range inputs {
		want, err := ref.Infer(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Data {
			if got[i].Data[j] != want.Data[j] {
				t.Fatalf("pipelined output[%d][%d] = %v, want %v", i, j, got[i].Data[j], want.Data[j])
			}
		}
	}
}

// TestInferBatchLayerStats checks per-layer records carry the inference
// index and that every inference contributes one record per model layer.
func TestInferBatchLayerStats(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(37)))
	inputs := batchInputs(m, 3, 38)
	eng := mustNew(t, pipelinedPlatform(), m)
	if _, err := eng.InferBatch(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	stats := eng.LayerStats()
	if len(stats) != len(inputs)*len(m.Layers) {
		t.Fatalf("layer stats %d, want %d", len(stats), len(inputs)*len(m.Layers))
	}
	perInference := map[int]int{}
	for _, ls := range stats {
		perInference[ls.Inference]++
	}
	for i := range inputs {
		if perInference[i] != len(m.Layers) {
			t.Errorf("inference %d has %d layer stats, want %d", i, perInference[i], len(m.Layers))
		}
	}
}

// TestCallRecordsReplacePrevious pins the per-call records of a warm
// engine: Infer is a batch of one, so each call's LayerStats and
// LastBatchStats replace the previous call's instead of piling up, while
// Cycles stays cumulative.
func TestCallRecordsReplacePrevious(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(43)))
	inputs := batchInputs(m, 2, 44)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		start := eng.Cycles()
		if _, err := eng.Infer(ctx, inputs[0]); err != nil {
			t.Fatal(err)
		}
		if got := len(eng.LayerStats()); got != len(m.Layers) {
			t.Errorf("Infer %d: %d layer stats, want %d", i, got, len(m.Layers))
		}
		st := eng.LastBatchStats()
		if st.Inferences != 1 || st.Cycles != eng.Cycles()-start || st.Cycles <= 0 {
			t.Errorf("Infer %d: batch stats %+v, want 1 inference over %d cycles", i, st, eng.Cycles()-start)
		}
	}
	start := eng.Cycles()
	if _, err := eng.InferBatch(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.LayerStats()); got != 2*len(m.Layers) {
		t.Errorf("InferBatch of 2: %d layer stats, want %d", got, 2*len(m.Layers))
	}
	if st := eng.LastBatchStats(); st.Inferences != 2 || st.Cycles != eng.Cycles()-start {
		t.Errorf("InferBatch of 2: batch stats %+v, want 2 inferences over %d cycles", st, eng.Cycles()-start)
	}
}

// TestInferBatchValidation covers the input validation paths.
func TestInferBatchValidation(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(39)))
	eng := mustNew(t, batchPlatform(), m)
	if _, err := eng.InferBatch(context.Background(), nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := eng.InferBatch(context.Background(), []*tensor.Tensor{nil}); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := eng.Infer(context.Background(), nil); err == nil {
		t.Error("nil Infer input accepted")
	}
}

// TestSchedulerContextsClearedOnError is the oob-partner leak regression:
// when a layer dies mid-flight (cycle cap exceeded), every packet context —
// including separated-ordering partner tables — must be dropped with the
// scheduler, and the engine must stay usable.
func TestSchedulerContextsClearedOnError(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(41)))
	input := batchInputs(m, 1, 42)[0]

	cfg := Mesh8x8MC8(paperFixed8)
	cfg.Ordering = flit.Separated // oob partner tables in play
	cfg.DrainCycleCap = 3         // guarantees a mid-flight failure
	eng := mustNew(t, cfg, m)
	flows := []flow{{idx: 0, act: input}}
	s := newScheduler(context.Background(), eng, flows)
	runErr := s.run()
	if runErr == nil || !strings.Contains(runErr.Error(), "cycle cap") {
		t.Fatalf("expected cycle-cap error, got %v", runErr)
	}
	if len(s.feeds) != 0 || len(s.results.refs) != 0 || len(s.pending) != 0 || len(s.activeRuns) != 0 {
		t.Errorf("scheduler context leaked after error: %d MC feeds, %d results, %d pending, %d runs",
			len(s.feeds), len(s.results.refs), len(s.pending), len(s.activeRuns))
	}
	if pt := &eng.partners; len(pt.tables) == 0 || len(pt.free) != len(pt.tables) {
		t.Errorf("partner handles of the packets in flight not freed after error: %d of %d free",
			len(pt.free), len(pt.tables))
	}
}
