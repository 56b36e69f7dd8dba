// Package nocbt is the public API of this reproduction of "Bit Transition
// Reduction by Data Transmission Ordering in NoC-based DNN Accelerator"
// (Chen, Li, Zhu, Lu — SOCC 2025).
//
// The library provides, end to end:
//
//   - the '1'-bit count-based data transmission ordering (O1
//     affiliated-ordering and O2 separated-ordering) with the §III
//     expectation model and optimality guarantees;
//   - a cycle-driven 2D-mesh wormhole NoC simulator with per-link bit
//     transition recording;
//   - a NocDAS-style NoC-based DNN accelerator that runs full LeNet /
//     DarkNet inferences as task/result packets;
//   - hardware cost and link-power models for the ordering unit;
//   - runnable reproductions of every table and figure in the paper,
//     registered as experiments (see Experiments, RunExperiment and
//     cmd/btexp -list).
//
// Quick start:
//
//	model := nocbt.TrainedLeNet(1)
//	cfg, err := nocbt.NewPlatform(
//		nocbt.WithGeometry(nocbt.Fixed8()),
//		nocbt.WithOrdering(nocbt.O2),
//	)
//	if err != nil { ... }
//	eng, err := nocbt.NewEngine(cfg, model)
//	if err != nil { ... }
//	out, err := eng.Infer(ctx, nocbt.SampleInput(model, 7))
//	fmt.Println(eng.TotalBT(), out)
//
// Paper experiments run through the registry and render as text, JSON or
// CSV:
//
//	res, err := nocbt.RunExperiment(ctx, "fig12", nocbt.Params{Seed: 1, Trained: true})
//	text, _ := nocbt.Render(res, nocbt.Text)
package nocbt

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"nocbt/internal/accel"
	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/tensor"
	"nocbt/internal/train"
)

// Ordering selects the paper's transmission ordering configuration.
type Ordering = flit.Ordering

// The three evaluated orderings (§V-B).
const (
	// O0 is the baseline without ordering.
	O0 = flit.Baseline
	// O1 is affiliated-ordering: pairs sorted by weight popcount.
	O1 = flit.Affiliated
	// O2 is separated-ordering: weights and inputs sorted independently.
	O2 = flit.Separated
)

// Orderings returns [O0, O1, O2].
func Orderings() []Ordering { return flit.Orderings() }

// The related-work ordering strategies shipped alongside the paper trio
// (registered in the strategy registry; see OrderingStrategies).
const (
	// HammingNN is greedy nearest-neighbor ordering by inter-value Hamming
	// distance (Li et al. 2020, "Improving Efficiency in Neural Network
	// Accelerator Using Operands Hamming Distance Optimization").
	HammingNN = flit.HammingNN
	// PopcountAsc is ascending '1'-count affiliated ordering (Han et al.,
	// "'1'-bit Count-based Sorting Unit to Reduce Link Power in DNN
	// Accelerators").
	PopcountAsc = flit.PopcountAsc
)

// OrderingStrategy is one registered transmission-ordering policy: it
// permutes a task's (weight, input) pairs before flitization, optionally
// emitting recovery metadata (O2's partner table). Implement it (or wrap a
// function with NewOrderingStrategy) and register with
// RegisterOrderingStrategy to run a custom ordering end to end through
// NewPlatform, the engine, the sweep runner and the experiment registry.
type OrderingStrategy = flit.OrderingStrategy

// NewOrderingStrategy wraps an order function as a registrable strategy;
// see OrderingStrategy.Order for the contract.
func NewOrderingStrategy(name string, id Ordering, interleave, emitsPartner bool,
	order func(dst *Ordered, weights, inputs []Word, laneBits int)) OrderingStrategy {
	return flit.NewOrderingStrategy(name, id, interleave, emitsPartner, order)
}

// Ordered is the caller-owned destination an ordering strategy writes into:
// the ordered weight and input columns and, for partner-emitting
// strategies, the re-pairing table. Strategies may reuse its backing
// arrays from call to call.
type Ordered = flit.Ordered

// Word is the raw bit pattern of one on-link value (see internal/bitutil):
// what ordering strategies permute.
type Word = bitutil.Word

// RegisterOrderingStrategy adds a custom ordering strategy to the
// process-wide registry. Names and wire IDs must be unique; IDs 0–4 are
// taken by the built-ins (O0, O1, O2, hamming-nn, popcount-asc).
func RegisterOrderingStrategy(s OrderingStrategy) error { return flit.RegisterOrdering(s) }

// OrderingStrategies returns every registered ordering strategy in wire-ID
// order (the paper's O0/O1/O2 first).
func OrderingStrategies() []OrderingStrategy { return flit.OrderingStrategies() }

// ParseOrdering resolves a registered strategy name ("O2", "hamming-nn",
// case-insensitive, surrounding spaces ignored) onto its wire ID. The
// paper's long names baseline, affiliated and separated resolve to O0, O1
// and O2.
func ParseOrdering(name string) (Ordering, error) {
	name = strings.TrimSpace(name)
	switch strings.ToLower(name) {
	case "baseline":
		return O0, nil
	case "affiliated":
		return O1, nil
	case "separated":
		return O2, nil
	}
	return flit.ParseOrdering(name)
}

// LinkCodingScheme describes one link coding (bus-invert, Gray, …) and
// builds its wire state for every link and wire image of a simulation.
// Codings transform how the wires toggle on every mesh link and stack on
// top of any ordering strategy.
type LinkCodingScheme = flit.LinkCodingScheme

// RegisterLinkCoding adds a custom link coding to the registry; "none" is
// reserved for plain binary links.
func RegisterLinkCoding(s LinkCodingScheme) error { return flit.RegisterLinkCoding(s) }

// LookupLinkCoding resolves a coding name ("" and "none" mean uncoded and
// resolve to a nil scheme).
func LookupLinkCoding(name string) (LinkCodingScheme, bool) { return flit.LookupLinkCoding(name) }

// LinkCodingNames returns the registered coding names, "none" first.
func LinkCodingNames() []string { return flit.LinkCodingNames() }

// Topology is one interconnect scheme: node/port enumeration, routing,
// link pairing and NI attachment behind one interface. The built-in
// schemes are the paper's 2D mesh (the reserved default), a wraparound
// torus with dateline VC classes, and a concentrated mesh; register custom
// schemes with RegisterTopology and select them with WithTopology.
type Topology = noc.Topology

// TopologyBuilder constructs a Topology for one NoC configuration,
// validating the grid it is given.
type TopologyBuilder = noc.TopologyBuilder

// RegisterTopology adds a custom interconnect topology to the
// process-wide registry; "mesh" (and the empty name) are reserved for the
// built-in default.
func RegisterTopology(name string, build TopologyBuilder) error {
	return noc.RegisterTopology(name, build)
}

// TopologyNames returns the registered topology names, "mesh" first.
func TopologyNames() []string { return noc.TopologyNames() }

// CanonicalTopologyName resolves a topology name to its canonical form:
// "" for the default mesh (any spelling of "mesh" included), the
// registered spelling otherwise. ok is false for unknown names.
func CanonicalTopologyName(name string) (canonical string, ok bool) {
	return noc.CanonicalTopologyName(name)
}

// TopologyDisplayName renders a canonical topology name for reports:
// "mesh" for the empty default, the registered spelling otherwise.
func TopologyDisplayName(name string) string { return noc.TopologyDisplayName(name) }

// Geometry describes the link/flit format.
type Geometry = flit.Geometry

// Float32 returns the paper's 512-bit link / 16×float-32 flit format.
func Float32() Geometry { return Geometry{LinkBits: 512, Format: bitutil.Float32} }

// Fixed8 returns the paper's 128-bit link / 16×fixed-8 flit format.
func Fixed8() Geometry { return Geometry{LinkBits: 128, Format: bitutil.Fixed8} }

// LookupGeometry resolves a case-insensitive geometry name, surrounding
// spaces ignored, onto one of the paper's two flit formats: "fixed8" or
// "fixed-8" is Fixed8, "float32" or "float-32" is Float32.
func LookupGeometry(name string) (Geometry, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "fixed8", "fixed-8":
		return Fixed8(), true
	case "float32", "float-32":
		return Float32(), true
	}
	return Geometry{}, false
}

// FixedGeometry returns a 128-bit link geometry with fixed-point lanes of
// the given width: 2, 4, 8 or 16 bits (see FixedWidths). Narrower lanes
// pack more values per flit — FixedGeometry(4) carries 32 lanes where
// Fixed8() carries 16 — so low-precision layers ship proportionally fewer
// flits over the same physical link. FixedGeometry(8) is exactly Fixed8().
func FixedGeometry(bits int) (Geometry, error) { return flit.FixedGeometry(bits) }

// FixedWidths returns the supported fixed-point lane widths ({2, 4, 8, 16}),
// the valid entries for FixedGeometry and WithPrecisions.
func FixedWidths() []int { return bitutil.FixedWidths() }

// Platform is an accelerator platform configuration. Build one with
// NewPlatform (see platform.go) — arbitrary mesh sizes, MC counts and
// placement policies — or start from a paper preset option bundle.
type Platform = accel.Config

// Engine executes DNN inference over the simulated NoC. Engine.InferBatch
// runs a batch of inferences (concurrently on the mesh under
// PipelinedLayers) and Engine.Infer is a batch of one; each call records
// its throughput and per-inference latency (Engine.LastBatchStats) and its
// per-layer traffic (Engine.LayerStats).
type Engine = accel.Engine

// BatchStats is the throughput/latency record of an Engine.Infer or
// Engine.InferBatch call.
type BatchStats = accel.BatchStats

// InferenceStat is one batch inference's timing record.
type InferenceStat = accel.InferenceStat

// LayerMode selects the engine's mesh-sharing discipline.
type LayerMode = accel.LayerMode

const (
	// SerialLayers is the paper-faithful default: one inference's traffic
	// occupies the mesh at a time, fully drained between layers; InferBatch
	// degenerates to bit-and-cycle-identical serial execution.
	SerialLayers = accel.SerialLayers
	// PipelinedLayers lets every inference of a batch share the mesh
	// concurrently (outputs stay bit-identical; BT, cycles and throughput
	// reflect sustained traffic).
	PipelinedLayers = accel.PipelinedLayers
)

// NewEngine builds an accelerator engine for the platform and model.
func NewEngine(cfg Platform, model *Model) (*Engine, error) {
	return accel.New(cfg, model)
}

// Model is a DNN model (see LeNet, DarkNet, TrainedLeNet, TrainedDarkNet).
type Model = dnn.Model

// Tensor is the dense float32 tensor type used for inputs and outputs.
type Tensor = tensor.Tensor

// LeNet returns LeNet-5 with random (Kaiming-uniform) weights — the paper's
// "randomly initialized weights" configuration.
func LeNet(seed int64) *Model {
	return dnn.LeNet(rand.New(rand.NewSource(seed)))
}

// DarkNet returns the DarkNet-like model (64×64×3 input) with random
// weights.
func DarkNet(seed int64) *Model {
	return dnn.DarkNetTiny(rand.New(rand.NewSource(seed)))
}

// modelCache memoizes trained models process-wide: training is seconds of
// work and every experiment reuses the same seeds. Each entry is guarded by
// its own sync.Once, so concurrent sweep jobs wanting the same model block
// on one training run while different model/seed pairs train in parallel.
type modelCache struct {
	mu sync.Mutex
	m  map[string]*modelCacheEntry
}

type modelCacheEntry struct {
	once  sync.Once
	model *Model
}

func (c *modelCache) get(key string, build func() *Model) *Model {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*modelCacheEntry)
	}
	e, ok := c.m[key]
	if !ok {
		e = &modelCacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.model = build() })
	return e.model
}

var _trained modelCache

// TrainedLeNet returns LeNet-5 trained to convergence on the synthetic
// digit-glyph dataset (the repository's substitute for the paper's trained
// weights; the internal/train package doc describes the dataset). Training concentrates weight magnitudes near
// zero, which is the bit-level property the trained-weight experiments
// measure. Results are memoized per seed: the first call trains for about
// 2 s (2-vCPU Xeon @ 2.10 GHz, Go 1.24), later calls are free.
func TrainedLeNet(seed int64) *Model {
	return _trained.get(key("lenet", seed), func() *Model {
		return train.TrainedLeNet(seed, 300, train.Config{LR: 0.002, Epochs: 8})
	})
}

// TrainedDarkNet returns the DarkNet-like model briefly trained on the
// 3-channel synthetic digit dataset. Results are memoized per seed.
func TrainedDarkNet(seed int64) *Model {
	return _trained.get(key("darknet", seed), func() *Model {
		return train.TrainedDarkNet(seed, 60, train.Config{LR: 0.002, Epochs: 3})
	})
}

func key(name string, seed int64) string {
	return fmt.Sprintf("%s/%d", name, seed)
}

// SampleInput renders one synthetic digit image matching the model's input
// shape — the inference stimulus used by the with-NoC experiments. Any
// seed is valid: the sample count derives from the seed's residue
// normalized into [1, 10], so negative seeds (whose Go remainder is
// negative) cannot request a negative-capacity dataset. The returned
// sample is drawn from the seed's private rng, so different seeds pick
// different digits while the same seed always yields the same image.
func SampleInput(m *Model, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int((seed%10+10)%10)
	ds := train.SyntheticDigits(n, m.InShape, rng)
	return ds.Samples[rng.Intn(len(ds.Samples))].Image
}
