package nocbt_test

// One benchmark per paper table/figure plus ablations of the design choices
// the paper leaves open (the BenchmarkAblation* group below). Each bench does one full unit of the experiment per
// iteration and reports the paper's metric (BT/flit, reduction %, …) via
// b.ReportMetric, so `go test -bench .` regenerates the evaluation's rows.

import (
	"context"
	"math/rand"
	"testing"

	"nocbt"
	"nocbt/internal/bitutil"
	"nocbt/internal/businvert"
	"nocbt/internal/core"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/hwmodel"
	"nocbt/internal/stats"
	"nocbt/internal/tensor"
)

// ---- Fig. 1: expectation surface ----------------------------------------

func BenchmarkFig1ExpectationGrid(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		grid := core.ExpectationGrid(32)
		sink += grid[16][16]
	}
	b.ReportMetric(core.ExpectedBT(16, 16, 32), "E(16,16,32)")
	_ = sink
}

// ---- Tab. I: BT reduction without NoC ------------------------------------

func benchTable1Row(b *testing.B, name string) {
	cfg := nocbt.DefaultTable1Config()
	cfg.Packets = 2000 // keep one iteration under a second; rates converge fast
	var row nocbt.Table1Row
	for i := 0; i < b.N; i++ {
		for _, r := range nocbt.Table1(cfg) {
			if r.Source.Name == name {
				row = r
			}
		}
	}
	b.ReportMetric(row.BaselineBT, "BT/flit-base")
	b.ReportMetric(row.OrderedBT, "BT/flit-ordered")
	b.ReportMetric(row.ReductionPct, "reduction-%")
}

func BenchmarkTableIFloat32Random(b *testing.B)  { benchTable1Row(b, "Float-32 random") }
func BenchmarkTableIFixed8Random(b *testing.B)   { benchTable1Row(b, "Fixed-8 random") }
func BenchmarkTableIFloat32Trained(b *testing.B) { benchTable1Row(b, "Float-32 trained") }
func BenchmarkTableIFixed8Trained(b *testing.B)  { benchTable1Row(b, "Fixed-8 trained") }

// ---- Fig. 9/10/11: bit-level distributions --------------------------------

// benchExperimentText runs a registered experiment and renders its text
// form b.N times.
func benchExperimentText(b *testing.B, name string, p nocbt.Params) {
	var n int
	for i := 0; i < b.N; i++ {
		res, err := nocbt.RunExperiment(context.Background(), name, p)
		if err != nil {
			b.Fatal(err)
		}
		text, err := nocbt.Render(res, nocbt.Text)
		if err != nil {
			b.Fatal(err)
		}
		n += len(text)
	}
	_ = n
}

func BenchmarkFig9PopcountGrid(b *testing.B) {
	benchExperimentText(b, "fig9", nocbt.Params{Flits: 20})
}

func BenchmarkFig10BitDistribution(b *testing.B) { benchExperimentText(b, "fig10", nocbt.Params{}) }

func BenchmarkFig11BitDistribution(b *testing.B) { benchExperimentText(b, "fig11", nocbt.Params{}) }

// BenchmarkTopologyQuick is the quick topology grid the bench harness's
// topology-grid workload runs: O2 against hamming-nn and the Gray and
// bus-invert codings on mesh, torus and cmesh.
func BenchmarkTopologyQuick(b *testing.B) {
	benchExperimentText(b, "topology", nocbt.Params{Seed: 1, Quick: true})
}

// ---- Fig. 12: NoC size sweep ----------------------------------------------

func benchNoCRun(b *testing.B, platform string, cfg nocbt.Platform, ord nocbt.Ordering) {
	model := nocbt.TrainedLeNet(1)
	input := nocbt.SampleInput(model, 7)
	base, err := nocbt.RunModelOnNoC(context.Background(), platform, cfg, nocbt.O0, model, input)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r nocbt.NoCRunResult
	for i := 0; i < b.N; i++ {
		r, err = nocbt.RunModelOnNoC(context.Background(), platform, cfg, ord, model, input)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.TotalBT), "BT")
	b.ReportMetric(100*(1-float64(r.TotalBT)/float64(base.TotalBT)), "reduction-%")
	b.ReportMetric(float64(r.Cycles), "cycles")
}

func BenchmarkFig12NoC4x4MC2Fixed8O0(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O0)
}
func BenchmarkFig12NoC4x4MC2Fixed8O1(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O1)
}
func BenchmarkFig12NoC4x4MC2Fixed8O2(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O2)
}
func BenchmarkFig12NoC4x4MC2Float32O2(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Float32())...), nocbt.O2)
}
func BenchmarkFig12NoC8x8MC4Fixed8O2(b *testing.B) {
	benchNoCRun(b, "8x8 MC4", nocbt.MustPlatform(nocbt.PaperOptions8x8MC4(nocbt.Fixed8())...), nocbt.O2)
}
func BenchmarkFig12NoC8x8MC8Fixed8O2(b *testing.B) {
	benchNoCRun(b, "8x8 MC8", nocbt.MustPlatform(nocbt.PaperOptions8x8MC8(nocbt.Fixed8())...), nocbt.O2)
}

// ---- Fig. 13: model sweep ---------------------------------------------------

func BenchmarkFig13LeNetFixed8O2(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O2)
}

func BenchmarkFig13DarkNetFixed8O2(b *testing.B) {
	// DarkNet with random weights: one inference is ~10× LeNet's traffic.
	model := nocbt.DarkNet(1)
	input := nocbt.SampleInput(model, 7)
	base, err := nocbt.RunModelOnNoC(context.Background(), "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O0, model, input)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r nocbt.NoCRunResult
	for i := 0; i < b.N; i++ {
		r, err = nocbt.RunModelOnNoC(context.Background(), "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O2, model, input)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.TotalBT), "BT")
	b.ReportMetric(100*(1-float64(r.TotalBT)/float64(base.TotalBT)), "reduction-%")
}

// ---- Tab. II and §V-C -------------------------------------------------------

func BenchmarkTableIIHardware(b *testing.B) {
	unit := hwmodel.OrderingUnitSpec{Lanes: 16, LaneBits: 8, Affiliated: true}
	router := hwmodel.PaperRouter()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += unit.GE() + router.GE()
	}
	b.ReportMetric(unit.GE()/1000, "unit-kGE")
	b.ReportMetric(router.GE()/1000, "router-kGE")
	b.ReportMetric(unit.PowerW(125e6, 1)*1000, "unit-mW")
	b.ReportMetric(router.PowerW(125e6, 1)*1000, "router-mW")
	_ = sink
}

func BenchmarkLinkPower(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		m := hwmodel.PaperLinkModel(hwmodel.EnergyPerTransitionOurs)
		sink += m.ReducedPowerW(0.4085)
	}
	m := hwmodel.PaperLinkModel(hwmodel.EnergyPerTransitionOurs)
	b.ReportMetric(m.PowerW()*1000, "link-mW")
	b.ReportMetric(m.ReducedPowerW(0.4085)*1000, "reduced-mW")
	_ = sink
}

// ---- Ablations ---------------------------------------------------------------
// Packing, ordering direction and scope, in-band index cost, VC count, sort
// network and bus-invert coding: each varies one choice that §III leaves open
// and reports the BT it costs or saves.

func randWords(n, width int, seed int64) []bitutil.Word {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(width) - 1
	out := make([]bitutil.Word, n)
	for i := range out {
		out[i] = bitutil.Word(rng.Uint64() & mask)
	}
	return out
}

// BenchmarkAblationPacking compares sequential vs column-major placement of
// an ordered packet's values across its flits.
func BenchmarkAblationPacking(b *testing.B) {
	words := randWords(32, 8, 1)
	ordered, _ := core.OrderDescending(words, 8)
	var seqBT, colBT int
	for i := 0; i < b.N; i++ {
		seqBT = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		colBT = core.StreamTransitions(core.DistributeColumnMajor(ordered, 4, 8, 0), 8)
	}
	b.ReportMetric(float64(seqBT), "BT-sequential")
	b.ReportMetric(float64(colBT), "BT-column-major")
}

// BenchmarkAblationDirection compares descending, ascending and unordered
// streams.
func BenchmarkAblationDirection(b *testing.B) {
	words := randWords(4000, 8, 2)
	var desc, asc, none int
	for i := 0; i < b.N; i++ {
		ordered, _ := core.OrderDescending(words, 8)
		none = core.StreamTransitions(core.PackSequential(words, 8, 0), 8)
		desc = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		// Ascending = reversed descending.
		rev := make([]bitutil.Word, len(ordered))
		for j := range ordered {
			rev[j] = ordered[len(ordered)-1-j]
		}
		asc = core.StreamTransitions(core.PackSequential(rev, 8, 0), 8)
	}
	b.ReportMetric(float64(none), "BT-unordered")
	b.ReportMetric(float64(desc), "BT-descending")
	b.ReportMetric(float64(asc), "BT-ascending")
}

// BenchmarkAblationScope compares per-packet ordering (what the hardware
// unit does) against whole-stream ordering (the no-NoC upper bound).
func BenchmarkAblationScope(b *testing.B) {
	words := randWords(4000, 8, 3)
	var perPacket, global int
	for i := 0; i < b.N; i++ {
		// Global.
		ordered, _ := core.OrderDescending(words, 8)
		global = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		// Per 32-value packet.
		var flits [][]bitutil.Word
		for off := 0; off < len(words); off += 32 {
			pkt, _ := core.OrderDescending(words[off:off+32], 8)
			flits = append(flits, core.PackSequential(pkt, 8, 0)...)
		}
		perPacket = core.StreamTransitions(flits, 8)
	}
	b.ReportMetric(float64(global), "BT-global")
	b.ReportMetric(float64(perPacket), "BT-per-packet")
}

// BenchmarkAblationInBandIndex measures what separated-ordering loses when
// its re-pairing index must travel in-band as extra flits.
func BenchmarkAblationInBandIndex(b *testing.B) {
	model := nocbt.LeNet(1)
	input := nocbt.SampleInput(model, 7)
	run := func(inBand bool) int64 {
		cfg := nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...)
		cfg.Ordering = nocbt.O2
		cfg.InBandIndex = inBand
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Infer(context.Background(), input); err != nil {
			b.Fatal(err)
		}
		return eng.TotalBT()
	}
	var inBand, outBand int64
	for i := 0; i < b.N; i++ {
		outBand = run(false)
		inBand = run(true)
	}
	b.ReportMetric(float64(outBand), "BT-out-of-band")
	b.ReportMetric(float64(inBand), "BT-in-band")
}

// BenchmarkAblationVC varies the virtual-channel count: more VCs interleave
// more packets on each link, diluting per-packet ordering.
func BenchmarkAblationVC(b *testing.B) {
	model := nocbt.LeNet(1)
	input := nocbt.SampleInput(model, 7)
	run := func(vcs int, ord nocbt.Ordering) int64 {
		cfg := nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...)
		cfg.Mesh.VCs = vcs
		cfg.Ordering = ord
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Infer(context.Background(), input); err != nil {
			b.Fatal(err)
		}
		return eng.TotalBT()
	}
	var red1, red4 float64
	for i := 0; i < b.N; i++ {
		red1 = 100 * (1 - float64(run(1, nocbt.O2))/float64(run(1, nocbt.O0)))
		red4 = 100 * (1 - float64(run(4, nocbt.O2))/float64(run(4, nocbt.O0)))
	}
	b.ReportMetric(red1, "reduction-%-1VC")
	b.ReportMetric(red4, "reduction-%-4VC")
}

// BenchmarkAblationSortAlgo compares the hardware latency of the sorting
// network choices §III-B leaves open.
func BenchmarkAblationSortAlgo(b *testing.B) {
	unit := hwmodel.OrderingUnitSpec{Lanes: 16, LaneBits: 8}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += unit.SortLatencyCycles(hwmodel.BubbleSort, false)
	}
	b.ReportMetric(float64(unit.SortLatencyCycles(hwmodel.BubbleSort, false)), "bubble-cycles")
	b.ReportMetric(float64(unit.SortLatencyCycles(hwmodel.BitonicSort, false)), "bitonic-cycles")
	b.ReportMetric(float64(unit.SortLatencyCycles(hwmodel.MergeSort, false)), "merge-cycles")
	_ = sink
}

// BenchmarkAblationVsBusInvert compares '1'-bit-count ordering against
// bus-invert coding (Stan & Burleson, the paper's §II baseline family) on
// the same weight stream. Ordering needs no extra wires; bus-invert adds
// one invert line per segment.
func BenchmarkAblationVsBusInvert(b *testing.B) {
	words := randWords(8000, 8, 8)
	toVecs := func(flits [][]bitutil.Word) []bitutil.Vec {
		out := make([]bitutil.Vec, len(flits))
		for i, f := range flits {
			out[i] = bitutil.PackWords(f, 8, 64)
		}
		return out
	}
	var raw, orderedBT, busInvBT int
	for i := 0; i < b.N; i++ {
		baseline := core.PackSequential(words, 8, 0)
		raw = core.StreamTransitions(baseline, 8)
		ordered, _ := core.OrderDescending(words, 8)
		orderedBT = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		var err error
		busInvBT, err = businvert.StreamTransitions(toVecs(baseline), 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(raw), "BT-raw")
	b.ReportMetric(float64(orderedBT), "BT-ordered")
	b.ReportMetric(float64(busInvBT), "BT-businvert")
}

// ---- Batched inference engine ------------------------------------------------

// batchBenchWorkload is the compute-bound regime the batch engine targets:
// a small, layer-heavy model on the 8×8/MC8 platform with a
// one-MAC-per-cycle PE, so layer tails dominate and a serial mesh idles.
func batchBenchWorkload(tb testing.TB) (nocbt.Platform, *dnn.Model, []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(1))
	model := &dnn.Model{
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
	inputs := make([]*tensor.Tensor, 8)
	for i := range inputs {
		x := tensor.New(model.InShape...)
		x.Uniform(0, 1, rand.New(rand.NewSource(int64(10+i))))
		inputs[i] = x
	}
	cfg := nocbt.MustPlatform(nocbt.PaperOptions8x8MC8(nocbt.Fixed8())...)
	cfg.PEComputeCycles = 64
	return cfg, model, inputs
}

// BenchmarkInferSerial is the reference: the batch executed as one Infer
// call per input. Reports simulated cycles per inference — the hardware
// figure-of-merit the simulator exists to measure.
func BenchmarkInferSerial(b *testing.B) {
	cfg, model, inputs := batchBenchWorkload(b)
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range inputs {
			if _, err := eng.Infer(context.Background(), in); err != nil {
				b.Fatal(err)
			}
		}
		cycles = eng.Cycles()
	}
	b.ReportMetric(float64(cycles)/float64(len(inputs)), "cycles/inference")
	b.ReportMetric(float64(len(inputs))*1000/float64(cycles), "inf/kcycle")
}

// BenchmarkInferBatch runs the same inputs through Engine.InferBatch under
// PipelinedLayers, all inferences sharing the mesh. The inf/kcycle metric
// must be ≥1.5× the serial benchmark's (pinned exactly by
// TestInferBatchThroughput in internal/accel).
func BenchmarkInferBatch(b *testing.B) {
	cfg, model, inputs := batchBenchWorkload(b)
	cfg.LayerMode = nocbt.PipelinedLayers
	b.ReportAllocs()
	var st nocbt.BatchStats
	for i := 0; i < b.N; i++ {
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.InferBatch(context.Background(), inputs); err != nil {
			b.Fatal(err)
		}
		st = eng.LastBatchStats()
	}
	b.ReportMetric(float64(st.Cycles)/float64(st.Inferences), "cycles/inference")
	b.ReportMetric(st.Throughput(), "inf/kcycle")
	b.ReportMetric(st.AvgLatencyCycles, "avg-latency-cycles")
}

// ---- Micro-benchmarks of the hot paths ---------------------------------------

func BenchmarkOrderDescending(b *testing.B) {
	words := randWords(4096, 8, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.OrderDescending(words, 8)
	}
}

func BenchmarkVecTransitions(b *testing.B) {
	a := bitutil.NewVec(512)
	c := bitutil.NewVec(512)
	for i := 0; i < 512; i += 3 {
		c.SetBit(i, true)
	}
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Transitions(c)
	}
	_ = sink
}

func BenchmarkFlitize(b *testing.B) {
	g := nocbt.Fixed8()
	task := flit.Task{
		Inputs:  randWords(25, 8, 5),
		Weights: randWords(25, 8, 6),
		Bias:    1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := flit.Flitize(g, task, flit.Options{Ordering: flit.Separated}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitionDist(b *testing.B) {
	words := randWords(8000, 8, 7)
	flits := core.PackSequential(words, 8, 0)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += stats.TransitionDist(flits, 8).Mean()
	}
	_ = sink
}
