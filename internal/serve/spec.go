package serve

import (
	"fmt"
	"strings"

	"nocbt"
	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

// PlatformSpec is the wire-level description of an accelerator platform a
// client wants inferences served on. The zero value (and any omitted
// field) selects the serving defaults: the paper's 4×4 mesh with 2
// perimeter MCs, fixed-8 geometry, O2 separated-ordering (the paper's
// best BT reduction), and pipelined layer mode so micro-batches share the
// mesh. Note the last two differ from the library construction defaults
// (O0, serial) — a serving deployment exists to run the optimized
// ordering under sustained traffic.
type PlatformSpec struct {
	Width    int    `json:"width,omitempty"`
	Height   int    `json:"height,omitempty"`
	Geometry string `json:"geometry,omitempty"` // fixed8 | float32
	// Ordering names a registered ordering strategy: the paper aliases
	// (o0/baseline, o1/affiliated, o2/separated) or any registry name
	// ("hamming-nn", "popcount-asc", a custom registration).
	Ordering string `json:"ordering,omitempty"`
	// LinkCoding names a registered link coding ("gray", "businvert");
	// empty or "none" serves on plain binary links.
	LinkCoding string `json:"link_coding,omitempty"`
	LayerMode  string `json:"layer_mode,omitempty"` // pipelined | serial
	MCCount    int    `json:"mc_count,omitempty"`
	Placement  string `json:"placement,omitempty"` // perimeter | corners | column
	MCColumn   int    `json:"mc_column,omitempty"` // column index for placement=column
	VCs        int    `json:"vcs,omitempty"`
	BufDepth   int    `json:"buf_depth,omitempty"`
	// Precisions is the per-layer lane-width schedule for fixed-point
	// geometries (one entry per Conv/Linear layer, or a single entry
	// broadcast); entries come from nocbt.FixedWidths(). Empty keeps the
	// geometry's own format.
	Precisions []int `json:"precisions,omitempty"`
	// Topology names a registered interconnect topology ("mesh", "torus",
	// "cmesh"); empty serves on the paper's default mesh. Width and height
	// keep meaning the terminal grid under every topology.
	Topology string `json:"topology,omitempty"`
	// Concentration is the cmesh terminals-per-router factor (2 or 4;
	// 0 selects the topology default).
	Concentration int `json:"concentration,omitempty"`
}

// withDefaults resolves omitted fields to the serving defaults.
func (s PlatformSpec) withDefaults() PlatformSpec {
	if s.Width == 0 {
		s.Width = 4
	}
	if s.Height == 0 {
		s.Height = 4
	}
	if s.Geometry == "" {
		s.Geometry = "fixed8"
	}
	if s.Ordering == "" {
		s.Ordering = "o2"
	}
	if s.LayerMode == "" {
		s.LayerMode = "pipelined"
	}
	if s.MCCount == 0 {
		s.MCCount = 2
	}
	if s.Placement == "" {
		s.Placement = "perimeter"
	}
	if s.VCs == 0 {
		s.VCs = 4
	}
	if s.BufDepth == 0 {
		s.BufDepth = 4
	}
	return s
}

// Build validates the spec and constructs the platform through
// nocbt.NewPlatform, inheriting its descriptive structural errors.
func (s PlatformSpec) Build() (nocbt.Platform, error) {
	s = s.withDefaults()
	opts := []nocbt.PlatformOption{
		nocbt.WithMesh(s.Width, s.Height),
		nocbt.WithMCCount(s.MCCount),
		nocbt.WithVCs(s.VCs),
		nocbt.WithBufferDepth(s.BufDepth),
	}
	switch strings.ToLower(s.Geometry) {
	case "fixed8", "fixed-8":
		opts = append(opts, nocbt.WithGeometry(nocbt.Fixed8()))
	case "float32", "float-32":
		opts = append(opts, nocbt.WithGeometry(nocbt.Float32()))
	default:
		return nocbt.Platform{}, fmt.Errorf("serve: unknown geometry %q (want fixed8 or float32)", s.Geometry)
	}
	ord, err := nocbt.ParseOrdering(s.Ordering)
	if err != nil {
		return nocbt.Platform{}, fmt.Errorf("serve: %w", err)
	}
	opts = append(opts, nocbt.WithOrdering(ord))
	if _, ok := nocbt.LookupLinkCoding(s.LinkCoding); !ok {
		return nocbt.Platform{}, fmt.Errorf("serve: unknown link coding %q (registered: %v)",
			s.LinkCoding, nocbt.LinkCodingNames())
	}
	opts = append(opts, nocbt.WithLinkCoding(s.LinkCoding))
	switch strings.ToLower(s.LayerMode) {
	case "pipelined":
		opts = append(opts, nocbt.WithLayerMode(nocbt.PipelinedLayers))
	case "serial":
		opts = append(opts, nocbt.WithLayerMode(nocbt.SerialLayers))
	default:
		return nocbt.Platform{}, fmt.Errorf("serve: unknown layer mode %q (want pipelined or serial)", s.LayerMode)
	}
	switch strings.ToLower(s.Placement) {
	case "perimeter":
		opts = append(opts, nocbt.WithMCPlacement(nocbt.MCPerimeter))
	case "corners":
		opts = append(opts, nocbt.WithMCPlacement(nocbt.MCCorners))
	case "column":
		opts = append(opts, nocbt.WithMCColumn(s.MCColumn))
	default:
		return nocbt.Platform{}, fmt.Errorf("serve: unknown MC placement %q (want perimeter, corners or column)", s.Placement)
	}
	if len(s.Precisions) > 0 {
		opts = append(opts, nocbt.WithPrecisions(s.Precisions...))
	}
	if s.Topology != "" || s.Concentration != 0 {
		if _, ok := nocbt.CanonicalTopologyName(s.Topology); !ok {
			return nocbt.Platform{}, fmt.Errorf("serve: unknown topology %q (registered: %v)",
				s.Topology, nocbt.TopologyNames())
		}
		opts = append(opts, nocbt.WithTopology(s.Topology, nocbt.WithConcentration(s.Concentration)))
	}
	return nocbt.NewPlatform(opts...)
}

// ModelProvider materializes one servable model family.
type ModelProvider struct {
	// Build returns the family's model for a seed; trained selects
	// converged weights (may be slow on first call — nocbt memoizes).
	Build func(seed int64, trained bool) (*dnn.Model, error)
	// Input synthesizes the inference stimulus for an input seed.
	Input func(m *dnn.Model, inputSeed int64) *tensor.Tensor
}

// DefaultModels returns the built-in model registry: the paper's two
// evaluated families, with nocbt.SampleInput as the stimulus source.
func DefaultModels() map[string]ModelProvider {
	sample := func(m *dnn.Model, seed int64) *tensor.Tensor { return nocbt.SampleInput(m, seed) }
	return map[string]ModelProvider{
		"lenet": {
			Build: func(seed int64, trained bool) (*dnn.Model, error) {
				if trained {
					return nocbt.TrainedLeNet(seed), nil
				}
				return nocbt.LeNet(seed), nil
			},
			Input: sample,
		},
		"darknet": {
			Build: func(seed int64, trained bool) (*dnn.Model, error) {
				if trained {
					return nocbt.TrainedDarkNet(seed), nil
				}
				return nocbt.DarkNet(seed), nil
			},
			Input: sample,
		},
	}
}

// InferRequest is the /v1/infer request body.
type InferRequest struct {
	// Model names a registered model family ("lenet", "darknet").
	Model string `json:"model"`
	// Seed fixes weight initialization (and training, when Trained).
	Seed int64 `json:"seed"`
	// Trained selects converged weights.
	Trained bool `json:"trained,omitempty"`
	// InputSeed selects the synthetic input stimulus.
	InputSeed int64 `json:"input_seed"`
	// Platform describes the accelerator; omitted fields take the serving
	// defaults.
	Platform PlatformSpec `json:"platform,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// InferResponse is the /v1/infer response body.
type InferResponse struct {
	// Model is the materialized model's display name.
	Model string `json:"model"`
	// PlatformFingerprint is the content address of the resolved platform.
	PlatformFingerprint string `json:"platform_fingerprint"`
	// Shape and Output are the result tensor, bit-identical to a serial
	// Engine.Infer of the same request on a fresh engine.
	Shape  []int     `json:"shape"`
	Output []float32 `json:"output"`
	// LatencyCycles is the inference's simulated start-to-finish latency
	// inside its micro-batch; BatchSize is that batch's size. Both depend
	// on what other traffic the request coalesced with, so they are
	// reported only on live runs and omitted from cached replays — the
	// cached body holds exactly the parameter-deterministic fields, which
	// is what makes its content address sound.
	LatencyCycles int64 `json:"latency_cycles,omitempty"`
	BatchSize     int   `json:"batch_size,omitempty"`
	// Cached marks responses replayed from the result cache.
	Cached bool `json:"cached"`
}

// ExperimentRunRequest is the /v1/experiments/run request body.
type ExperimentRunRequest struct {
	// Name is the registered experiment ("fig12", "sweep", …).
	Name string `json:"name"`
	// Params mirrors the nocbt.Params knobs shared by the experiments.
	Params ExperimentParams `json:"params,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// ExperimentParams is the wire form of nocbt.Params.
type ExperimentParams struct {
	Seed           int64        `json:"seed,omitempty"`
	Trained        bool         `json:"trained,omitempty"`
	Quick          bool         `json:"quick,omitempty"`
	Step           int          `json:"step,omitempty"`
	Flits          int          `json:"flits,omitempty"`
	BTReductionPct float64      `json:"bt_reduction_pct,omitempty"`
	Sweep          *SweepParams `json:"sweep,omitempty"`
}

// SweepParams is the wire form of a "sweep" grid restriction: a grid
// spelled by name, resolved by nocbt.SweepNames.Spec. Empty axes keep the
// paper's defaults.
type SweepParams = nocbt.SweepNames

// toParams lowers the wire params onto nocbt.Params.
func (p ExperimentParams) toParams() (nocbt.Params, error) {
	out := nocbt.Params{
		Seed:           p.Seed,
		Trained:        p.Trained,
		Quick:          p.Quick,
		Step:           p.Step,
		Flits:          p.Flits,
		BTReductionPct: p.BTReductionPct,
	}
	if p.Sweep == nil {
		return out, nil
	}
	spec, err := p.Sweep.Spec(p.Seed, p.Trained)
	if err != nil {
		return out, fmt.Errorf("serve: sweep: %w", err)
	}
	out.Sweep = &spec
	return out, nil
}
