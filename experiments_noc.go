package nocbt

import (
	"context"
	"fmt"

	"nocbt/internal/hwmodel"
)

// This file implements the paper's *with-NoC* experiments (Figs. 12/13),
// the Tab. II hardware comparison and the §V-C link power estimate, each
// registered as an Experiment producing a typed *Result.

func init() {
	MustRegister(NewExperiment("fig12",
		"Fig. 12 — LeNet BT across NoC sizes (4x4/MC2, 8x8/MC4, 8x8/MC8), all formats and orderings",
		fig12Result))
	MustRegister(NewExperiment("fig13",
		"Fig. 13 — normalized BT for LeNet and DarkNet on the default 4x4/MC2 platform",
		fig13Result))
	MustRegister(NewExperiment("table2",
		"Tab. II — ordering-unit vs router hardware cost (kGE, mW) against the paper's synthesis",
		func(_ context.Context, p Params) (*Result, error) { return table2Result(), nil }))
	MustRegister(NewExperiment("power",
		"§V-C — link power before/after BT reduction for both link energy models",
		func(_ context.Context, p Params) (*Result, error) {
			return linkPowerResult(p.withDefaults().BTReductionPct), nil
		}))
}

// NoCRunResult is one (platform, geometry, ordering) measurement of a full
// DNN inference through the NoC.
type NoCRunResult struct {
	Platform string
	// Model is the model's display name (e.g. "LeNet"); Workload is the
	// sweep-grid workload name the run came from (e.g. "lenet", matching
	// SweepModel). Sweep paths fill both; direct RunModelOnNoC calls leave
	// Workload empty.
	Model    string
	Workload string
	Geometry Geometry
	Ordering Ordering
	// Coding is the link coding's display name; empty and "none" both mean
	// the paper's plain binary links.
	Coding string
	// Topology is the canonical interconnect name; empty means the default
	// mesh, the paper's platform.
	Topology string
	// Seed is the weight/input seed of the run (sweep paths fill it in;
	// direct RunModelOnNoC calls leave it 0 unless the caller sets it).
	Seed int64
	// Batch is the inference batch size (1 = serial Infer).
	Batch int
	// Precision is the uniform lane-width override the sweep's precision
	// axis applied (0 when unused — the geometry's own format ran).
	Precision int
	TotalBT   int64
	Cycles    int64
	Packets   int64
	// Flits counts total injected flits (headers included) — the traffic
	// volume a narrower precision shrinks.
	Flits int64
	// RouterFlits counts router-to-router link traversals; RouterFlits /
	// Flits is the mean hop count, which torus wrap links and cmesh
	// concentration shrink.
	RouterFlits int64
	// MACBitOps, WeightRegBits and FlitBits are the engine's per-component
	// activity counters (accel.EnergyCounters); with TotalBT as the link
	// transition count they price a per-component energy estimate.
	MACBitOps     int64
	WeightRegBits int64
	FlitBits      int64
	// Throughput is inferences per thousand simulated cycles and
	// AvgLatencyCycles the mean per-inference latency; for batch 1 both
	// degenerate to the single inference's cycle count.
	Throughput       float64
	AvgLatencyCycles float64
	// ReductionPct is relative to the same platform/geometry's O0 run.
	ReductionPct float64
}

// codingDisplayName canonicalizes a platform's LinkCoding for result rows:
// the empty (uncoded) spelling renders as "none", matching the sweep
// runner's display form so serial and swept rows compare equal.
func codingDisplayName(c string) string {
	if c == "" {
		return "none"
	}
	return c
}

// RunModelOnNoC executes one inference of the model on the platform with
// the given ordering and returns the measurement. The context cancels the
// simulation between cycles.
func RunModelOnNoC(ctx context.Context, name string, cfg Platform, ord Ordering, model *Model, input *Tensor) (NoCRunResult, error) {
	cfg.Ordering = ord
	eng, err := NewEngine(cfg, model)
	if err != nil {
		return NoCRunResult{}, err
	}
	if t := TracerFromContext(ctx); t != nil {
		eng.SetSpanTracer(t)
	}
	if _, err := eng.Infer(ctx, input); err != nil {
		return NoCRunResult{}, err
	}
	ec := eng.EnergyCounters()
	topology, _ := CanonicalTopologyName(cfg.Mesh.Topology)
	res := NoCRunResult{
		Platform:      name,
		Model:         model.Name(),
		Geometry:      cfg.Geometry,
		Ordering:      ord,
		Coding:        codingDisplayName(cfg.LinkCoding),
		Topology:      topology,
		Batch:         1,
		TotalBT:       eng.TotalBT(),
		Cycles:        eng.Cycles(),
		Packets:       eng.TaskPackets() + eng.ResultPackets(),
		Flits:         eng.TotalFlits(),
		RouterFlits:   eng.NoCStats().RouterFlits,
		MACBitOps:     ec.MACBitOps,
		WeightRegBits: ec.WeightRegBits,
		FlitBits:      ec.FlitBits,
	}
	if res.Cycles > 0 {
		res.Throughput = 1000 / float64(res.Cycles)
		res.AvgLatencyCycles = float64(res.Cycles)
	}
	return res, nil
}

// RunModelBatchOnNoC executes a batch of identical inferences concurrently
// on the mesh (Engine.InferRepeated under PipelinedLayers) and returns the
// measurement with batch throughput and latency filled in — the same
// arithmetic the sweep runner's batch axis records.
func RunModelBatchOnNoC(ctx context.Context, name string, cfg Platform, ord Ordering, model *Model, input *Tensor, batch int) (NoCRunResult, error) {
	if batch < 1 {
		return NoCRunResult{}, fmt.Errorf("nocbt: batch size %d < 1", batch)
	}
	if batch == 1 {
		return RunModelOnNoC(ctx, name, cfg, ord, model, input)
	}
	cfg.Ordering = ord
	cfg.LayerMode = PipelinedLayers
	eng, err := NewEngine(cfg, model)
	if err != nil {
		return NoCRunResult{}, err
	}
	if t := TracerFromContext(ctx); t != nil {
		eng.SetSpanTracer(t)
	}
	if _, err := eng.InferRepeated(ctx, input, batch); err != nil {
		return NoCRunResult{}, err
	}
	st := eng.LastBatchStats()
	ec := eng.EnergyCounters()
	return NoCRunResult{
		Platform:         name,
		Model:            model.Name(),
		Geometry:         cfg.Geometry,
		Ordering:         ord,
		Coding:           codingDisplayName(cfg.LinkCoding),
		Batch:            batch,
		TotalBT:          eng.TotalBT(),
		Cycles:           eng.Cycles(),
		Packets:          eng.TaskPackets() + eng.ResultPackets(),
		Flits:            eng.TotalFlits(),
		MACBitOps:        ec.MACBitOps,
		WeightRegBits:    ec.WeightRegBits,
		FlitBits:         ec.FlitBits,
		Throughput:       st.Throughput(),
		AvgLatencyCycles: st.AvgLatencyCycles,
	}, nil
}

// fig12Spec is the Fig. 12 grid: LeNet on the paper's three platforms,
// both formats, all orderings.
func fig12Spec(seed int64, trained bool) SweepSpec {
	return SweepSpec{
		Platforms:  PaperPlatforms(),
		Geometries: []Geometry{Float32(), Fixed8()},
		Orderings:  Orderings(),
		Models:     []SweepModel{LeNetModel},
		Trained:    trained,
		Seeds:      []int64{seed},
	}
}

// Fig12 reproduces the NoC-size sweep: LeNet inference on 4×4/MC2, 8×8/MC4
// and 8×8/MC8 for both data formats and all three orderings, executed on
// the concurrent sweep runner. Trained weights by default (the paper
// evaluates both; trained is its headline).
func Fig12(ctx context.Context, seed int64, trained bool) ([]NoCRunResult, error) {
	return RunSweep(ctx, fig12Spec(seed, trained))
}

// fig12Result measures the Fig. 12 grid at Params.Seed (0 included).
func fig12Result(ctx context.Context, p Params) (*Result, error) {
	rows, err := Fig12(ctx, p.Seed, p.Trained)
	if err != nil {
		return nil, err
	}
	table := ResultTable{
		Name:    "fig12",
		Columns: []string{"Platform", "Format", "Ordering", "Total BT", "Cycles", "Reduction %"},
	}
	for _, r := range rows {
		table.AddRow(r.Platform, r.Geometry.Format.String(), r.Ordering.String(),
			r.TotalBT, r.Cycles, r.ReductionPct)
	}
	return &Result{
		Experiment: "fig12",
		Title:      "Fig. 12 — BTs across NoC sizes (LeNet)",
		Meta:       map[string]any{"seed": p.Seed, "trained": p.Trained},
		Tables:     []ResultTable{table},
		Sections: []Section{
			TextSection("Fig. 12 — BTs across NoC sizes (LeNet)\n"),
			TableSection(0),
			TextSection("\nPaper: O1 12.09-18.58% (float-32), 7.88-17.75% (fixed-8); " +
				"O2 23.30-32.01% (float-32), 16.95-35.93% (fixed-8);\n" +
				"8x8/MC4 shows the highest absolute BT (most hops per MC).\n"),
		},
	}, nil
}

// fig13Spec is the Fig. 13 grid: LeNet and the DarkNet-like model on the
// default 4×4/MC2 platform, both formats, all orderings.
func fig13Spec(seed int64, trained bool) SweepSpec {
	return SweepSpec{
		Platforms:  []NamedPlatform{DefaultPlatform()},
		Geometries: []Geometry{Float32(), Fixed8()},
		Orderings:  Orderings(),
		Models:     []SweepModel{LeNetModel, DarkNetModel},
		Trained:    trained,
		Seeds:      []int64{seed},
	}
}

// Fig13 reproduces the model sweep: LeNet and the DarkNet-like model on the
// default 4×4/MC2 platform, both formats, all orderings, executed on the
// concurrent sweep runner.
func Fig13(ctx context.Context, seed int64, trained bool) ([]NoCRunResult, error) {
	return RunSweep(ctx, fig13Spec(seed, trained))
}

// fig13Result measures the Fig. 13 grid at Params.Seed (0 included).
func fig13Result(ctx context.Context, p Params) (*Result, error) {
	rows, err := Fig13(ctx, p.Seed, p.Trained)
	if err != nil {
		return nil, err
	}
	table := ResultTable{
		Name:    "fig13",
		Columns: []string{"Model", "Format", "Ordering", "Total BT", "Normalized", "Reduction %"},
	}
	var baseline float64
	for _, r := range rows {
		if r.Ordering == O0 {
			baseline = float64(r.TotalBT)
		}
		table.AddRow(r.Model, r.Geometry.Format.String(), r.Ordering.String(),
			r.TotalBT, float64(r.TotalBT)/baseline, r.ReductionPct)
	}
	return &Result{
		Experiment: "fig13",
		Title:      "Fig. 13 — normalized BTs for different NN models (4x4 MC2)",
		Meta:       map[string]any{"seed": p.Seed, "trained": p.Trained},
		Tables:     []ResultTable{table},
		Sections: []Section{
			TextSection("Fig. 13 — normalized BTs for different NN models (4x4 MC2)\n"),
			TableSection(0),
			TextSection("\nPaper: up to 35.93% reduction for LeNet, up to 40.85% for DarkNet; " +
				"separated-ordering is always best.\n"),
		},
	}, nil
}

// table2Result builds the hardware cost comparison: our structural
// gate-equivalent model for both flit formats next to the paper's Synopsys
// DC synthesis results.
func table2Result() *Result {
	paper := hwmodel.PaperValues()
	freq := paper.FrequencyMHz * 1e6
	router := hwmodel.PaperRouter()
	fixed8Unit := hwmodel.OrderingUnitSpec{Lanes: 16, LaneBits: 8, Affiliated: true}
	float32Unit := hwmodel.OrderingUnitSpec{Lanes: 16, LaneBits: 32, Affiliated: true}
	sortUnit := hwmodel.OrderingUnitSpec{Lanes: 16, LaneBits: 8}

	table := ResultTable{
		Name:    "table2",
		Columns: []string{"Component", "kGE (model)", "Power mW (model)", "kGE (paper)", "Power mW (paper)"},
	}
	for _, spec := range []struct {
		name string
		u    hwmodel.OrderingUnitSpec
	}{
		{"ordering unit (fixed-8 lanes)", fixed8Unit},
		{"ordering unit (float-32 lanes)", float32Unit},
	} {
		table.AddRow(spec.name, spec.u.GE()/1000, spec.u.PowerW(freq, 1)*1000,
			paper.OrderingUnitKGE, paper.OrderingUnitMW)
	}
	table.AddRow("router (5p, 4VC, 4-flit, 128b)", router.GE()/1000, router.PowerW(freq, 1)*1000,
		paper.RouterKGE, paper.RouterMW)

	tail := fmt.Sprintf("\nScaling as in the paper: 4 ordering units = %.3f mW (paper %.3f); "+
		"64 routers = %.2f mW (paper %.2f), %.2f kGE (paper %.2f)\n",
		4*fixed8Unit.PowerW(freq, 1)*1000,
		paper.OrderingUnits4MW,
		64*router.PowerW(freq, 1)*1000, paper.Routers64MW,
		64*router.GE()/1000, paper.Routers64KGE)
	tail += fmt.Sprintf("Sort latency (16 values): bubble %d cycles, bitonic %d, merge %d; "+
		"separated-ordering doubles each.\n",
		sortUnit.SortLatencyCycles(hwmodel.BubbleSort, false),
		sortUnit.SortLatencyCycles(hwmodel.BitonicSort, false),
		sortUnit.SortLatencyCycles(hwmodel.MergeSort, false))

	return &Result{
		Experiment: "table2",
		Title:      "Tab. II — ordering unit vs router, TSMC 90nm @ 125 MHz",
		Meta: map[string]any{
			"frequency_mhz": paper.FrequencyMHz,
			"sort_latency_cycles": map[string]any{
				"bubble":  sortUnit.SortLatencyCycles(hwmodel.BubbleSort, false),
				"bitonic": sortUnit.SortLatencyCycles(hwmodel.BitonicSort, false),
				"merge":   sortUnit.SortLatencyCycles(hwmodel.MergeSort, false),
			},
		},
		Tables: []ResultTable{table},
		Sections: []Section{
			TextSection("Tab. II — ordering unit vs router, TSMC 90nm @ 125 MHz\n"),
			TableSection(0),
			TextSection(tail),
		},
	}
}

// linkPowerResult reproduces the §V-C arithmetic: link power for the
// paper's link energy and Banerjee's model, before and after applying a BT
// reduction rate (the paper uses its best with-NoC figure, 40.85%).
func linkPowerResult(btReductionPct float64) *Result {
	table := ResultTable{
		Name: "link_power",
		Columns: []string{"Link model", "pJ/transition", "Power mW",
			fmt.Sprintf("Power mW (-%.2f%%)", btReductionPct)},
	}
	for _, m := range []struct {
		name   string
		energy float64
	}{
		{"ours (Innovus-extracted)", hwmodel.EnergyPerTransitionOurs},
		{"Banerjee et al. [6]", hwmodel.EnergyPerTransitionBanerjee},
	} {
		lm := hwmodel.PaperLinkModel(m.energy)
		table.AddRow(m.name, m.energy*1e12, lm.PowerW()*1000, lm.ReducedPowerW(btReductionPct/100)*1000)
	}
	return &Result{
		Experiment: "power",
		Title:      "§V-C — link power, 8x8 mesh (112 links), 128-bit links, 125 MHz",
		Meta:       map[string]any{"bt_reduction_pct": btReductionPct},
		Tables:     []ResultTable{table},
		Sections: []Section{
			TextSection("§V-C — link power, 8x8 mesh (112 links), 128-bit links, 125 MHz, half the wires toggling\n"),
			TableSection(0),
			TextSection("\nPaper: 155.008 → 91.688 mW (ours), 476.672 → 281.951 mW (Banerjee) at 40.85% reduction.\n"),
		},
	}
}
