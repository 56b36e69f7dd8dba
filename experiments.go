package nocbt

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"nocbt/internal/bitutil"
	"nocbt/internal/core"
	"nocbt/internal/quant"
	"nocbt/internal/stats"
)

// This file implements the paper's *without-NoC* experiments: Fig. 1
// (expectation surface), Tab. I (BT reduction on flit streams), Fig. 9
// (popcount grid before/after ordering) and Figs. 10/11 (bit-level
// distributions). Each is a registered Experiment producing a typed
// *Result, rendered by Render. The with-NoC experiments live in
// experiments_noc.go.

func init() {
	MustRegister(NewExperiment("fig1",
		"Fig. 1 — E(x, y) bit-transition expectation surface for 32-bit values",
		func(_ context.Context, p Params) (*Result, error) { return fig1Result(p), nil }))
	MustRegister(NewExperiment("table1",
		"Tab. I — BT/flit reduction on linkless weight streams, baseline vs ordered",
		func(_ context.Context, p Params) (*Result, error) { return table1Result(p), nil }))
	MustRegister(NewExperiment("fig9",
		"Fig. 9 — per-lane '1'-bit counts of a weight stream before/after ordering",
		func(_ context.Context, p Params) (*Result, error) { return fig9Result(p), nil }))
	MustRegister(NewExperiment("fig10",
		"Fig. 10 — float-32 per-bit '1' and transition probabilities",
		func(_ context.Context, p Params) (*Result, error) {
			return bitLevelResult("fig10", bitutil.Float32, p), nil
		}))
	MustRegister(NewExperiment("fig11",
		"Fig. 11 — fixed-8 per-bit '1' and transition probabilities",
		func(_ context.Context, p Params) (*Result, error) {
			return bitLevelResult("fig11", bitutil.Fixed8, p), nil
		}))
}

// fig1Result tabulates the Eq. (2) expectation surface E(x, y) for 32-bit
// values — the data behind Fig. 1 — sampled every Params.Step counts.
func fig1Result(p Params) *Result {
	p = p.withDefaults()
	step := p.Step
	grid := core.ExpectationGrid(32)

	table := ResultTable{Name: "expectation", Columns: []string{"x"}}
	for y := 0; y <= 32; y += step {
		table.Columns = append(table.Columns, fmt.Sprintf("y=%d", y))
	}
	var sb strings.Builder
	sb.WriteString("Expectation of BT between two 32-bit numbers, E = x + y - xy/16 (Fig. 1)\n")
	sb.WriteString("rows: x ones in first value; cols: y ones in second value\n\n")
	sb.WriteString("x\\y ")
	for y := 0; y <= 32; y += step {
		fmt.Fprintf(&sb, "%6d", y)
	}
	sb.WriteString("\n")
	for x := 0; x <= 32; x += step {
		row := []any{x}
		fmt.Fprintf(&sb, "%3d ", x)
		for y := 0; y <= 32; y += step {
			fmt.Fprintf(&sb, "%6.1f", grid[x][y])
			row = append(row, grid[x][y])
		}
		sb.WriteString("\n")
		table.AddRow(row...)
	}
	return &Result{
		Experiment: "fig1",
		Title:      "Fig. 1 — expectation of BT between two 32-bit numbers",
		Meta:       map[string]any{"step": step, "bits": 32},
		Tables:     []ResultTable{table},
		Sections:   []Section{TextSection(sb.String())},
	}
}

// WeightSource names the four Tab. I weight populations.
type WeightSource struct {
	// Name matches the paper's row label, e.g. "Float-32 random".
	Name string
	// Format is the lane encoding.
	Format bitutil.Format
	// Trained selects trained LeNet weights instead of random init.
	Trained bool
}

// Table1Sources returns the four rows of Tab. I in paper order.
func Table1Sources() []WeightSource {
	return []WeightSource{
		{Name: "Float-32 random", Format: bitutil.Float32},
		{Name: "Fixed-8 random", Format: bitutil.Fixed8},
		{Name: "Float-32 trained", Format: bitutil.Float32, Trained: true},
		{Name: "Fixed-8 trained", Format: bitutil.Fixed8, Trained: true},
	}
}

// weightWords draws `count` weight values from the LeNet weight population
// (kernel-sized groups, matching the paper's packetization) and encodes
// them in the requested format. Fixed-8 quantization uses per-layer scales,
// matching the accelerator's per-layer quantizer.
func weightWords(src WeightSource, count int, seed int64) []bitutil.Word {
	var model *Model
	if src.Trained {
		model = TrainedLeNet(seed)
	} else {
		model = LeNet(seed)
	}
	rng := rand.New(rand.NewSource(seed + 1000))
	out := make([]bitutil.Word, count)
	if src.Format == bitutil.Fixed8 {
		var qs []int8
		for _, layer := range model.LayerWeightSlices() {
			qs = append(qs, quant.Choose(layer).QuantizeSlice(layer)...)
		}
		for i := range out {
			out[i] = bitutil.Fixed8Word(qs[rng.Intn(len(qs))])
		}
		return out
	}
	weights := model.WeightValues()
	for i := range out {
		out[i] = bitutil.Float32Word(weights[rng.Intn(len(weights))])
	}
	return out
}

// Table1Config parameterizes the without-NoC experiment.
type Table1Config struct {
	// Packets is the stream length (paper: 10,000).
	Packets int
	// KernelSize is the weights per packet before padding (paper's LeNet
	// conv kernel: 25).
	KernelSize int
	// LanesPerFlit is the flit width in values (paper: 8).
	LanesPerFlit int
	// Seed fixes the weight sampling.
	Seed int64
}

// DefaultTable1Config returns the paper's setup: 10,000 packets of one 5×5
// kernel each, 8 weights per flit.
func DefaultTable1Config() Table1Config {
	return Table1Config{Packets: 10_000, KernelSize: 25, LanesPerFlit: 8, Seed: 1}
}

// Table1Row is one measured row of Tab. I.
type Table1Row struct {
	Source       WeightSource
	FlitBits     int
	Flits        int
	BaselineBT   float64 // BTs per flit, unordered stream
	OrderedBT    float64 // BTs per flit after global descending ordering
	ReductionPct float64
}

// Table1 reproduces Tab. I: BT per flit on a linkless flit stream, baseline
// versus '1'-bit-count descending ordering, for the four weight sources.
//
// Methodology (matching §V-A): each packet carries one kernel's weights,
// zero-padded to a whole number of flits; the baseline stream transmits
// packets in generation order; the ordered stream globally sorts all values
// (padding zeros included — they sink to the tail) and repacks sequentially.
func Table1(cfg Table1Config) []Table1Row {
	if cfg.Packets <= 0 || cfg.KernelSize <= 0 || cfg.LanesPerFlit <= 0 {
		panic(fmt.Sprintf("nocbt: bad Table1 config %+v", cfg))
	}
	flitsPerPacket := (cfg.KernelSize + cfg.LanesPerFlit - 1) / cfg.LanesPerFlit
	padded := flitsPerPacket * cfg.LanesPerFlit

	rows := make([]Table1Row, 0, 4)
	for _, src := range Table1Sources() {
		width := src.Format.Bits()
		words := weightWords(src, cfg.Packets*cfg.KernelSize, cfg.Seed)

		// Build the padded stream packet by packet.
		stream := make([]bitutil.Word, 0, cfg.Packets*padded)
		for p := 0; p < cfg.Packets; p++ {
			stream = append(stream, words[p*cfg.KernelSize:(p+1)*cfg.KernelSize]...)
			for i := cfg.KernelSize; i < padded; i++ {
				stream = append(stream, 0)
			}
		}

		baselineFlits := core.PackSequential(stream, cfg.LanesPerFlit, 0)
		ordered, _ := core.OrderDescending(stream, width)
		orderedFlits := core.PackSequential(ordered, cfg.LanesPerFlit, 0)

		nFlits := len(baselineFlits)
		baseBT := float64(core.StreamTransitions(baselineFlits, width)) / float64(nFlits-1)
		ordBT := float64(core.StreamTransitions(orderedFlits, width)) / float64(nFlits-1)
		rows = append(rows, Table1Row{
			Source:       src,
			FlitBits:     width * cfg.LanesPerFlit,
			Flits:        nFlits,
			BaselineBT:   baseBT,
			OrderedBT:    ordBT,
			ReductionPct: 100 * stats.ReductionRate(baseBT, ordBT),
		})
	}
	return rows
}

// table1Params resolves the effective Tab. I stream configuration from the
// experiment parameters.
func table1Params(p Params) Table1Config {
	p = p.withDefaults()
	cfg := p.Table1
	if cfg == (Table1Config{}) {
		cfg = DefaultTable1Config()
		cfg.Seed = p.Seed
		if p.Quick {
			cfg.Packets = 500
		}
	}
	return cfg
}

// table1Result measures Tab. I with the registry's parameter defaulting
// (zero config → the paper's setup at Params.Seed).
func table1Result(p Params) *Result {
	cfg := table1Params(p)
	paper := map[string][3]float64{
		"Float-32 random":  {113.27, 90.18, 20.38},
		"Fixed-8 random":   {31.01, 22.42, 27.70},
		"Float-32 trained": {112.80, 91.46, 18.92},
		"Fixed-8 trained":  {30.55, 13.73, 55.71},
	}
	table := ResultTable{
		Name: "table1",
		Columns: []string{"Weights", "Flit bits", "BT/flit base", "BT/flit ordered",
			"Reduction %", "paper base", "paper ordered", "paper %"},
	}
	for _, r := range Table1(cfg) {
		pv := paper[r.Source.Name]
		table.AddRow(r.Source.Name, r.FlitBits, r.BaselineBT, r.OrderedBT, r.ReductionPct,
			pv[0], pv[1], pv[2])
	}
	return &Result{
		Experiment: "table1",
		Title:      "Tab. I — BT reduction without NoC",
		Meta: map[string]any{
			"packets": cfg.Packets, "kernel_size": cfg.KernelSize,
			"lanes_per_flit": cfg.LanesPerFlit, "seed": cfg.Seed,
		},
		Tables: []ResultTable{table},
		Sections: []Section{
			TextSection("Tab. I — BT reduction without NoC\n"),
			TableSection(0),
		},
	}
}

// fig9Result renders the per-flit popcount grid of a small weight stream
// before and after ordering — the paper's Fig. 9 visualization — and
// records the counts as typed tables.
func fig9Result(p Params) *Result {
	p = p.withDefaults()
	flitsToShow := p.Flits
	cfg := DefaultTable1Config()
	src := WeightSource{Name: "Fixed-8 trained", Format: bitutil.Fixed8, Trained: true}
	words := weightWords(src, flitsToShow*cfg.LanesPerFlit, cfg.Seed)

	baseline := core.PackSequential(words, cfg.LanesPerFlit, 0)
	ordered, _ := core.OrderDescending(words, 8)
	orderedFlits := core.PackSequential(ordered, cfg.LanesPerFlit, 0)

	var sb strings.Builder
	sb.WriteString("Fig. 9 — '1'-bit counts per lane, before ordering (left) / after (right)\n\n")
	sb.WriteString("Before:\n")
	sb.WriteString(stats.RenderPopcountGrid(baseline, 8, flitsToShow))
	sb.WriteString("\nAfter '1'-bit count descending ordering:\n")
	sb.WriteString(stats.RenderPopcountGrid(orderedFlits, 8, flitsToShow))

	popcounts := func(name string, flits [][]bitutil.Word) ResultTable {
		t := ResultTable{Name: name, Columns: []string{"flit"}}
		for lane := 0; lane < cfg.LanesPerFlit; lane++ {
			t.Columns = append(t.Columns, fmt.Sprintf("lane%d", lane))
		}
		for i, f := range flits {
			if i >= flitsToShow {
				break
			}
			row := []any{i}
			for _, w := range f {
				row = append(row, w.OnesCount(8))
			}
			t.AddRow(row...)
		}
		return t
	}
	return &Result{
		Experiment: "fig9",
		Title:      "Fig. 9 — '1'-bit counts per lane before/after ordering",
		Meta:       map[string]any{"flits": flitsToShow, "seed": cfg.Seed, "source": src.Name},
		Tables:     []ResultTable{popcounts("before", baseline), popcounts("after", orderedFlits)},
		Sections:   []Section{TextSection(sb.String())},
	}
}

// bitLevelResult reproduces Fig. 10 (float-32) or Fig. 11 (fixed-8): the
// per-bit-position '1' probability for random and trained weights, and the
// per-position transition probability for baseline versus ordered streams.
func bitLevelResult(name string, format bitutil.Format, p Params) *Result {
	p = p.withDefaults()
	cfg := DefaultTable1Config()
	width := format.Bits()
	fig := "Fig. 10 (float-32)"
	if format == bitutil.Fixed8 {
		fig = "Fig. 11 (fixed-8)"
	}

	table := ResultTable{
		Name:    "bit_stats",
		Columns: []string{"weights", "bit", "p_one", "p_transition_base", "p_transition_ordered"},
	}
	meta := map[string]any{"format": format.String(), "seed": cfg.Seed}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — bit distribution and transition probability\n\n", fig)
	for _, trained := range []bool{false, true} {
		wname := "random"
		if trained {
			wname = "trained"
		}
		src := WeightSource{Format: format, Trained: trained}
		words := weightWords(src, 2000*cfg.LanesPerFlit, cfg.Seed)

		dist := stats.BitDist(words, width)
		labels := make([]string, width)
		for i := range labels {
			labels[i] = fmt.Sprintf("bit %2d", width-1-i)
		}
		fmt.Fprintf(&sb, "P('1') per bit position, %s weights (MSB first):\n", wname)
		sb.WriteString(stats.RenderBars(labels, dist.MSBFirst(), 1, 40))

		baseline := core.PackSequential(words, cfg.LanesPerFlit, 0)
		ordered, _ := core.OrderDescending(words, width)
		orderedFlits := core.PackSequential(ordered, cfg.LanesPerFlit, 0)
		bd := stats.TransitionDist(baseline, width)
		od := stats.TransitionDist(orderedFlits, width)
		fmt.Fprintf(&sb, "\nP(transition) per bit position, %s weights (MSB first; baseline vs ordered):\n", wname)
		for i := 0; i < width; i++ {
			fmt.Fprintf(&sb, "bit %2d  base %.4f  ordered %.4f\n",
				width-1-i, bd.MSBFirst()[i], od.MSBFirst()[i])
			table.AddRow(wname, width-1-i, dist.MSBFirst()[i], bd.MSBFirst()[i], od.MSBFirst()[i])
		}
		fmt.Fprintf(&sb, "mean toggle rate: baseline %.4f, ordered %.4f\n\n", bd.Mean(), od.Mean())
		meta["mean_toggle_base_"+wname] = bd.Mean()
		meta["mean_toggle_ordered_"+wname] = od.Mean()
	}
	return &Result{
		Experiment: name,
		Title:      fig + " — bit distribution and transition probability",
		Meta:       meta,
		Tables:     []ResultTable{table},
		Sections:   []Section{TextSection(sb.String())},
	}
}
