package nocbt

import (
	"context"
	"fmt"

	"nocbt/internal/hwmodel"
	"nocbt/internal/sweep"
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

// NoCRunResult is one measurement of a full DNN inference (or batch of
// inferences) through the NoC: a RunSweep grid point or a RunModelOnNoC
// call. Its fields are documented on sweep.Result.
type NoCRunResult = sweep.Result

// RunModelOnNoC executes one inference of the model on the platform with
// the given ordering and returns the measurement, with the row arithmetic
// of RunSweep: Coding and Topology in canonical display form, Workload and
// Seed left empty. The context cancels the simulation between cycles and
// may carry a span tracer (WithTracer).
func RunModelOnNoC(ctx context.Context, name string, cfg Platform, ord Ordering, model *Model, input *Tensor) (NoCRunResult, error) {
	cfg.Ordering = ord
	res, _, err := sweep.Measure(ctx, name, cfg, model, input, 1, nil, nil)
	return res, err
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

// fig12Result measures the Fig. 12 grid at Params.Seed (0 included).
func fig12Result(ctx context.Context, p Params) (*Result, error) {
	rows, err := RunSweep(ctx, fig12Spec(p.Seed, p.Trained))
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

// fig13Result measures the Fig. 13 grid at Params.Seed (0 included).
func fig13Result(ctx context.Context, p Params) (*Result, error) {
	rows, err := RunSweep(ctx, fig13Spec(p.Seed, p.Trained))
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
