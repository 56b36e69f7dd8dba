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

// NamedPlatform pairs a report label with a platform constructor: Build
// returns the platform for a flit geometry.
type NamedPlatform = sweep.Platform

// PaperPlatforms returns the paper's three evaluated platforms in Fig. 12
// order: 4×4/MC2, 8×8/MC4, 8×8/MC8. An invalid geometry builds a platform
// that NewEngine rejects with its descriptive validation error.
func PaperPlatforms() []NamedPlatform {
	return []NamedPlatform{
		{Name: "4x4 MC2", Build: accel.Mesh4x4MC2},
		{Name: "8x8 MC4", Build: accel.Mesh8x8MC4},
		{Name: "8x8 MC8", Build: accel.Mesh8x8MC8},
	}
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
	// Batches lists inference batch sizes to measure. Each size runs one
	// Engine.InferBatch of that many copies of the input; sizes above 1 run
	// under PipelinedLayers so all inferences of the batch share the mesh
	// concurrently, measuring BT and throughput under sustained traffic.
	// Default: {1}.
	Batches []int
	// Codings lists link codings to measure by registered name ("none",
	// "gray", "businvert"); every (ordering, coding) combination becomes a
	// grid point, overriding each platform's own LinkCoding. Empty keeps
	// the platforms' configured codings (usually none). The codings of one
	// grid point share one simulation: the first is the engine's own, the
	// rest are counted on the same link crossings. On a fixed-point
	// geometry without in-band index flits its orderings share it too,
	// each in a wire image of its own.
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
	// Workers bounds how many sweep groups (a grid point's codings, and its
	// orderings where they share one simulation) run at once; 0 starts up
	// to a small multiple of GOMAXPROCS side by side, time-sliced so no
	// core idles while the longest group ends. Workers beyond the number
	// of groups add nothing. A failing group cancels the groups in flight.
	// It only changes wall-clock parallelism, never the deterministic
	// per-job results, so it is deliberately excluded from the sweep
	// fingerprint.
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
		Platforms:  s.Platforms,
		Geometries: s.Geometries,
		Orderings:  s.Orderings,
		Seeds:      s.Seeds,
		Batches:    s.Batches,
		Codings:    s.Codings,
		Precisions: s.Precisions,
		Topologies: s.Topologies,
		Workers:    s.Workers,
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
	return sweep.Run(ctx, internal)
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
		Tables: []ResultTable{sweepTable(rows)},
		Sections: []Section{
			TextSection("Sweep — ordering × platform × format × model grid\n"),
			TableSection(0),
		},
	}, nil
}

// sweepTable lays sweep rows out as the sweep experiment's table, one row
// per grid point.
func sweepTable(rows []NoCRunResult) ResultTable {
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
	return table
}

// SweepReport renders sweep rows as the sweep experiment's text table.
func SweepReport(rows []NoCRunResult) string {
	text, _ := Render(&Result{Tables: []ResultTable{sweepTable(rows)}}, Text) // a one-table text render cannot fail
	return text
}

// SweepNames spells a sweep grid by name, the way btexp's -platforms,
// -formats, … flags and btserved's "sweep" request parameters do; Spec
// resolves it onto a SweepSpec. Empty axes keep SweepSpec's defaults.
type SweepNames struct {
	// Platforms resolve through LookupPaperPlatform ("4x4", "8x8mc4", …).
	Platforms []string `json:"platforms,omitempty"`
	// Formats are "fixed8" (or "fixed-8") and "float32" (or "float-32").
	Formats []string `json:"formats,omitempty"`
	// Orderings are ParseOrdering names ("o0", "separated", "hamming-nn",
	// …); empty keeps the paper's O0/O1/O2.
	Orderings []string `json:"orderings,omitempty"`
	// Codings add a link-coding axis by registry name ("none", "gray",
	// "businvert"); empty keeps each platform's own coding.
	Codings []string `json:"codings,omitempty"`
	// Models are SweepModel names ("lenet", "darknet").
	Models []string `json:"models,omitempty"`
	// Seeds default to the seed passed to Spec.
	Seeds   []int64 `json:"seeds,omitempty"`
	Batches []int   `json:"batches,omitempty"`
	// Precisions add a uniform fixed-point lane-width axis (entries from
	// FixedWidths(); 0 keeps the geometry's own format).
	Precisions []int `json:"precisions,omitempty"`
	// Topologies add an interconnect axis by registry name ("mesh",
	// "torus", "cmesh"); empty keeps each platform's own topology.
	Topologies []string `json:"topologies,omitempty"`
}

// Spec resolves the names onto a SweepSpec with the given default seed and
// weight choice, failing on the first name or number it cannot resolve.
// Names are case-insensitive and may carry surrounding spaces.
func (n SweepNames) Spec(seed int64, trained bool) (SweepSpec, error) {
	spec := SweepSpec{Trained: trained, Seeds: n.Seeds, Batches: n.Batches, Precisions: n.Precisions}
	if len(spec.Seeds) == 0 {
		spec.Seeds = []int64{seed}
	}
	for _, name := range n.Platforms {
		p, ok := LookupPaperPlatform(name)
		if !ok {
			return SweepSpec{}, fmt.Errorf("unknown platform %q (want 4x4, 8x8mc4 or 8x8mc8)", name)
		}
		spec.Platforms = append(spec.Platforms, p)
	}
	for _, name := range n.Formats {
		g, ok := LookupGeometry(name)
		if !ok {
			return SweepSpec{}, fmt.Errorf("unknown format %q (want fixed8 or float32)", name)
		}
		spec.Geometries = append(spec.Geometries, g)
	}
	for _, name := range n.Orderings {
		ord, err := ParseOrdering(name)
		if err != nil {
			return SweepSpec{}, err
		}
		spec.Orderings = append(spec.Orderings, ord)
	}
	for _, name := range n.Codings {
		name = strings.TrimSpace(name)
		if _, ok := LookupLinkCoding(name); !ok {
			return SweepSpec{}, fmt.Errorf("unknown link coding %q (registered: %v)", name, LinkCodingNames())
		}
		spec.Codings = append(spec.Codings, name)
	}
	for _, name := range n.Topologies {
		name = strings.TrimSpace(name)
		if _, ok := CanonicalTopologyName(name); !ok {
			return SweepSpec{}, fmt.Errorf("unknown topology %q (registered: %v)", name, TopologyNames())
		}
		spec.Topologies = append(spec.Topologies, name)
	}
	for _, name := range n.Models {
		m := SweepModel(strings.ToLower(strings.TrimSpace(name)))
		if m != LeNetModel && m != DarkNetModel {
			return SweepSpec{}, fmt.Errorf("unknown sweep model %q (want lenet or darknet)", name)
		}
		spec.Models = append(spec.Models, m)
	}
	for _, b := range n.Batches {
		if b < 1 {
			return SweepSpec{}, fmt.Errorf("bad batch size %d (want a positive integer)", b)
		}
	}
	for _, p := range n.Precisions {
		if _, err := FixedGeometry(p); p != 0 && err != nil {
			return SweepSpec{}, fmt.Errorf("bad precision %d: %w", p, err)
		}
	}
	return spec, nil
}
