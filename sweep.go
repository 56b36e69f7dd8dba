package nocbt

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"nocbt/internal/accel"
	"nocbt/internal/dnn"
	"nocbt/internal/sweep"
	"nocbt/internal/tensor"
)

func init() {
	MustRegister(NewExperiment("sweep",
		"arbitrary ordering × platform × format × model × seed × batch grid on the concurrent runner",
		sweepResult))
}

// This file is the public face of the concurrent sweep runner
// (internal/sweep): declare a grid of orderings × platforms × formats ×
// models × seeds and RunSweep measures every combination on a bounded
// worker pool, returning rows bit-identical to the serial loops no matter
// how many workers run.

// SweepModel names a model family the sweep runner can materialize.
type SweepModel string

const (
	// LeNetModel is LeNet-5 on 32×32×1 input.
	LeNetModel SweepModel = "lenet"
	// DarkNetModel is the DarkNet-like model on 64×64×3 input.
	DarkNetModel SweepModel = "darknet"
)

// NamedPlatform pairs a report label with a platform constructor.
type NamedPlatform struct {
	Name  string
	Build func(Geometry) Platform
}

// PaperPlatforms returns the paper's three evaluated platforms in Fig. 12
// order: 4×4/MC2, 8×8/MC4, 8×8/MC8.
func PaperPlatforms() []NamedPlatform {
	return []NamedPlatform{
		{Name: "4x4 MC2", Build: paper4x4MC2},
		{Name: "8x8 MC4", Build: paper8x8MC4},
		{Name: "8x8 MC8", Build: paper8x8MC8},
	}
}

// paper4x4MC2, paper8x8MC4 and paper8x8MC8 build the paper presets with
// NewPlatform. An invalid geometry falls back to the raw accel
// constructor, so the error surfaces as NewEngine's descriptive validation
// failure rather than as a construction panic.
func paper4x4MC2(g Geometry) Platform {
	return paperPlatform(PaperOptions4x4MC2(g), accel.Mesh4x4MC2, g)
}

func paper8x8MC4(g Geometry) Platform {
	return paperPlatform(PaperOptions8x8MC4(g), accel.Mesh8x8MC4, g)
}

func paper8x8MC8(g Geometry) Platform {
	return paperPlatform(PaperOptions8x8MC8(g), accel.Mesh8x8MC8, g)
}

func paperPlatform(opts []PlatformOption, raw func(Geometry) Platform, g Geometry) Platform {
	cfg, err := NewPlatform(opts...)
	if err != nil {
		return raw(g)
	}
	return cfg
}

// LookupPaperPlatform resolves a case- and space-insensitive platform name
// ("4x4 MC2", "8x8mc4", …) onto one of the paper's evaluated platforms.
// "4x4" is accepted as the unambiguous short form of "4x4 MC2".
func LookupPaperPlatform(name string) (NamedPlatform, bool) {
	key := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(name)), " ", "")
	if key == "4x4" {
		key = "4x4mc2"
	}
	for _, p := range PaperPlatforms() {
		if strings.ReplaceAll(strings.ToLower(p.Name), " ", "") == key {
			return p, true
		}
	}
	return NamedPlatform{}, false
}

// DefaultPlatform returns the paper's default 4×4/MC2 platform.
func DefaultPlatform() NamedPlatform { return PaperPlatforms()[0] }

// FixedPlatform adapts an already-built Platform (e.g. from NewPlatform)
// into a sweep axis entry. The sweep's geometry axis still applies: each
// grid point re-links the platform to the swept geometry, keeping mesh
// link width and flit format consistent.
func FixedPlatform(name string, cfg Platform) NamedPlatform {
	return NamedPlatform{
		Name: name,
		Build: func(g Geometry) Platform {
			out := cfg
			out.Geometry = g
			out.Mesh.LinkBits = g.LinkBits
			return out
		},
	}
}

// SweepSpec declares a sweep grid. Zero-valued axes fall back to the
// paper's defaults (see withDefaults), so SweepSpec{} sweeps untrained
// LeNet over every platform, format and ordering at seed 1.
type SweepSpec struct {
	// Platforms to evaluate. Default: PaperPlatforms().
	Platforms []NamedPlatform
	// Geometries (flit formats) to evaluate. Default: Float32 and Fixed8.
	Geometries []Geometry
	// Orderings to evaluate. Default: O0, O1, O2.
	Orderings []Ordering
	// Models to evaluate. Default: LeNet.
	Models []SweepModel
	// Trained selects converged weights (trained once per model+seed and
	// cached process-wide) instead of random initialization.
	Trained bool
	// Seeds for weight init / training and input synthesis. Default: {1}.
	Seeds []int64
	// Batches lists inference batch sizes to measure. Size 1 is the
	// classic serial Infer; larger sizes run Engine.InferBatch under
	// PipelinedLayers so all inferences of the batch share the mesh
	// concurrently, measuring BT and throughput under sustained traffic.
	// Default: {1}.
	Batches []int
	// Codings lists link codings to measure by registered name ("none",
	// "gray", "businvert"); every (ordering, coding) combination becomes a
	// grid point, overriding each platform's own LinkCoding. Empty keeps
	// the platforms' configured codings (usually none). The codings of one
	// grid point share one simulation: the first is the engine's own, the
	// rest are counted on the same link crossings.
	Codings []string
	// Precisions lists uniform fixed-point lane widths (see FixedWidths) to
	// measure; each becomes its own grid point overriding the geometry's
	// lane format on every layer, so narrower widths ship fewer flits. 0
	// keeps the geometry's own format, as does the empty axis; float-32
	// geometry points ignore the axis.
	Precisions []int
	// Topologies lists registered interconnect topologies ("mesh", "torus",
	// "cmesh") to measure; each becomes its own grid point overriding the
	// platform's interconnect on the same terminal grid. Empty keeps the
	// platforms' configured topologies (usually the paper's mesh).
	Topologies []string
	// Workers bounds the worker pool; 0 means GOMAXPROCS. Each worker runs
	// one coding group (a grid point's codings) at a time, so workers
	// beyond the number of groups add nothing. It only changes wall-clock
	// parallelism, never the deterministic per-job results, so it is
	// deliberately excluded from the sweep fingerprint.
	// fingerprint:ignore result-invariant: worker-pool size cannot change deterministic sweep results
	Workers int
}

func (s SweepSpec) withDefaults() SweepSpec {
	if len(s.Platforms) == 0 {
		s.Platforms = PaperPlatforms()
	}
	if len(s.Geometries) == 0 {
		s.Geometries = []Geometry{Float32(), Fixed8()}
	}
	if len(s.Orderings) == 0 {
		s.Orderings = Orderings()
	}
	if len(s.Models) == 0 {
		s.Models = []SweepModel{LeNetModel}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	if len(s.Batches) == 0 {
		s.Batches = []int{1}
	}
	// Codings deliberately has no default entry: an empty axis means "each
	// platform's own LinkCoding" (usually none), so a FixedPlatform built
	// WithLinkCoding keeps its knob. Listing codings — including "none" —
	// overrides the platform's setting at every grid point.
	return s
}

// workloadFor maps a model name onto the internal sweep workload. The
// untrained builders draw weights from the job-private rng (seeded from the
// spec seed, so identical to LeNet(seed)/DarkNet(seed)); the trained
// builders go through the process-wide trained-model cache instead.
func workloadFor(m SweepModel, trained bool) (sweep.Workload, error) {
	build := func(mk func(seed int64, rng *rand.Rand) *dnn.Model) func(int64, *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
		return func(seed int64, rng *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
			model := mk(seed, rng)
			return model, SampleInput(model, seed+7), nil
		}
	}
	switch m {
	case LeNetModel:
		if trained {
			return sweep.Workload{Name: string(m), Build: build(
				func(seed int64, _ *rand.Rand) *dnn.Model { return TrainedLeNet(seed) })}, nil
		}
		return sweep.Workload{Name: string(m), Build: build(
			func(_ int64, rng *rand.Rand) *dnn.Model { return dnn.LeNet(rng) })}, nil
	case DarkNetModel:
		if trained {
			return sweep.Workload{Name: string(m), Build: build(
				func(seed int64, _ *rand.Rand) *dnn.Model { return TrainedDarkNet(seed) })}, nil
		}
		return sweep.Workload{Name: string(m), Build: build(
			func(_ int64, rng *rand.Rand) *dnn.Model { return dnn.DarkNetTiny(rng) })}, nil
	default:
		return sweep.Workload{}, fmt.Errorf("nocbt: unknown sweep model %q", m)
	}
}

// toInternal lowers the public spec onto the internal runner's grid.
func (s SweepSpec) toInternal() (sweep.Spec, error) {
	spec := sweep.Spec{
		Geometries: s.Geometries,
		Orderings:  s.Orderings,
		Seeds:      s.Seeds,
		Batches:    s.Batches,
		Codings:    s.Codings,
		Precisions: s.Precisions,
		Topologies: s.Topologies,
		Workers:    s.Workers,
	}
	for _, p := range s.Platforms {
		p := p
		spec.Platforms = append(spec.Platforms, sweep.Platform{Name: p.Name, Build: p.Build})
	}
	for _, m := range s.Models {
		w, err := workloadFor(m, s.Trained)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Workloads = append(spec.Workloads, w)
	}
	return spec, nil
}

// RunSweep expands the spec into one job per grid point and measures every
// job on a bounded worker pool. Results come back in deterministic grid
// order (seeds → models → geometries → platforms → orderings) with
// ReductionPct filled in relative to each group's O0 run, and are
// bit-identical for any worker count: jobs share materialized models
// (trained at most once per model+seed) but infer on private clones.
// Cancelling the context aborts the sweep promptly with ctx.Err():
// workers stop picking up jobs and in-flight inferences bail between
// simulator cycles.
func RunSweep(ctx context.Context, spec SweepSpec) ([]NoCRunResult, error) {
	internal, err := spec.withDefaults().toInternal()
	if err != nil {
		return nil, err
	}
	results, err := sweep.Run(ctx, internal)
	if err != nil {
		return nil, err
	}
	rows := make([]NoCRunResult, len(results))
	for i, r := range results {
		rows[i] = NoCRunResult{
			Platform:         r.Platform,
			Model:            r.Model,
			Workload:         r.Workload,
			Geometry:         r.Geometry,
			Ordering:         r.Ordering,
			Coding:           r.Coding,
			Topology:         r.Topology,
			Batch:            r.Batch,
			Precision:        r.Precision,
			TotalBT:          r.TotalBT,
			Cycles:           r.Cycles,
			Packets:          r.Packets,
			Flits:            r.Flits,
			RouterFlits:      r.RouterFlits,
			MACBitOps:        r.MACBitOps,
			WeightRegBits:    r.WeightRegBits,
			FlitBits:         r.FlitBits,
			Throughput:       r.Throughput,
			AvgLatencyCycles: r.AvgLatencyCycles,
			ReductionPct:     r.ReductionPct,
			Seed:             r.Seed,
		}
	}
	return rows, nil
}

// sweepResult runs the registered "sweep" experiment: the grid from
// Params.Sweep (or the paper's full default grid seeded from Params) on
// the concurrent runner, packaged as a typed Result.
func sweepResult(ctx context.Context, p Params) (*Result, error) {
	p = p.withDefaults()
	spec := SweepSpec{Trained: p.Trained, Seeds: []int64{p.Seed}}
	if p.Sweep != nil {
		spec = *p.Sweep
	}
	rows, err := RunSweep(ctx, spec)
	if err != nil {
		return nil, err
	}
	table := ResultTable{
		Name: "sweep",
		Columns: []string{"Platform", "Topo", "Model", "Format", "Prec", "Ordering", "Coding", "Seed", "Batch",
			"Total BT", "Flits", "Cycles", "Packets", "Inf/kcycle", "Reduction %"},
	}
	for _, r := range rows {
		prec := "-"
		if r.Precision > 0 {
			prec = fmt.Sprintf("%d", r.Precision)
		}
		table.AddRow(r.Platform, TopologyDisplayName(r.Topology), r.Model, r.Geometry.Format.String(), prec, r.Ordering.String(),
			r.Coding, r.Seed, r.Batch, r.TotalBT, r.Flits, r.Cycles, r.Packets, r.Throughput, r.ReductionPct)
	}
	resolved := spec.withDefaults()
	platformNames := make([]string, len(resolved.Platforms))
	for i, pl := range resolved.Platforms {
		platformNames[i] = pl.Name
	}
	return &Result{
		Experiment: "sweep",
		Title:      "Sweep — ordering × platform × format × model grid",
		Meta: map[string]any{
			"rows":       len(rows),
			"platforms":  platformNames,
			"seeds":      resolved.Seeds,
			"batches":    resolved.Batches,
			"codings":    resolved.Codings,
			"precisions": resolved.Precisions,
			"topologies": resolved.Topologies,
			"trained":    resolved.Trained,
		},
		Tables: []ResultTable{table},
		Sections: []Section{
			TextSection("Sweep — ordering × platform × format × model grid\n"),
			TableSection(0),
		},
	}, nil
}

// SweepReport renders sweep rows with the standard table formatter.
func SweepReport(rows []NoCRunResult) string {
	return sweep.RenderTable(toInternalResults(rows))
}

func toInternalResults(rows []NoCRunResult) []sweep.Result {
	out := make([]sweep.Result, len(rows))
	for i, r := range rows {
		workload := r.Workload
		if workload == "" {
			workload = r.Model // rows from direct RunModelOnNoC calls
		}
		batch := r.Batch
		if batch == 0 {
			batch = 1 // rows predating the batch axis
		}
		coding := r.Coding
		if coding == "" {
			coding = "none" // rows predating the coding axis
		}
		out[i] = sweep.Result{
			Platform:         r.Platform,
			Workload:         workload,
			Model:            r.Model,
			Geometry:         r.Geometry,
			Format:           r.Geometry.Format.String(),
			LinkBits:         r.Geometry.LinkBits,
			Ordering:         r.Ordering,
			OrderingName:     r.Ordering.String(),
			Coding:           coding,
			Topology:         r.Topology,
			Seed:             r.Seed,
			Batch:            batch,
			Precision:        r.Precision,
			TotalBT:          r.TotalBT,
			Cycles:           r.Cycles,
			Packets:          r.Packets,
			Flits:            r.Flits,
			RouterFlits:      r.RouterFlits,
			MACBitOps:        r.MACBitOps,
			WeightRegBits:    r.WeightRegBits,
			FlitBits:         r.FlitBits,
			Throughput:       r.Throughput,
			AvgLatencyCycles: r.AvgLatencyCycles,
			ReductionPct:     r.ReductionPct,
		}
	}
	return out
}
