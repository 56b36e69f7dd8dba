// Package accel implements the NOC-DNA: a NoC-based DNN accelerator in the
// style of NocDAS (the paper's evaluation platform). Memory controllers
// (MCs) at the mesh perimeter decompose convolution and linear layers into
// tasks (Fig. 2), order and flitize them (O0/O1/O2), and dispatch packets to
// processing elements (PEs); PEs compute multiply-accumulate partial sums
// and return results. Pooling, activations and reshapes execute memory-side:
// they are not order-insensitive and the paper routes only conv/linear
// traffic through the ordering unit.
package accel

import (
	"fmt"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

// Config describes one accelerator platform instance.
type Config struct {
	// Mesh is the NoC configuration. Mesh.LinkBits must equal
	// Geometry.LinkBits.
	Mesh noc.Config
	// Geometry is the flit format (512-bit/float-32 or 128-bit/fixed-8).
	Geometry flit.Geometry
	// Precisions is the per-layer lane-width schedule for fixed-point
	// platforms: entry i is the quantization width (2, 4, 8 or 16 bits) of
	// the i-th NoC layer (conv/linear, in model order). A single entry
	// broadcasts one width to every layer; empty keeps Geometry.Format for
	// all layers. Each layer flitizes at its own width on the shared
	// physical link, so narrower layers pack more lanes per flit and ship
	// proportionally fewer flits. The schedule length is validated against
	// the model in New (Config alone does not know the model).
	//
	// The omitempty tag keeps platform fingerprints of precision-free
	// configurations byte-identical to those minted before this field
	// existed.
	Precisions []int `json:",omitempty"`
	// Ordering selects the transmission-ordering strategy by its registered
	// wire ID: the paper's O0/O1/O2 or any strategy added through
	// flit.RegisterOrdering.
	Ordering flit.Ordering
	// LinkCoding names a registered link coding ("gray", "businvert")
	// applied on every mesh link on top of the ordering. Empty or "none"
	// transmits plain binary — the paper's configuration.
	LinkCoding string
	// InBandIndex makes separated-ordering ship its re-pairing index as
	// extra flits (costing BT); off by default to match the paper's
	// negligible-overhead accounting.
	InBandIndex bool
	// MCs lists the memory-controller node IDs; all other nodes are PEs.
	MCs []int
	// MaxSegmentPairs splits tasks larger than this many (input, weight)
	// pairs into multiple packets. Default 64; at most 65535, the task
	// header's 16-bit pair count.
	MaxSegmentPairs int
	// PEComputeCycles is the PE latency between receiving a complete task
	// packet and injecting its result packet. Default 4.
	PEComputeCycles int
	// DrainCycleCap bounds the per-layer simulation length as a protocol
	// failure guard. Default 100 million cycles.
	DrainCycleCap int64
	// LayerMode selects how much traffic shares the mesh at once; the zero
	// value is the paper-faithful SerialLayers.
	LayerMode LayerMode
}

// LayerMode selects the engine's mesh-sharing discipline.
type LayerMode int

const (
	// SerialLayers is the paper-faithful default: one inference's traffic
	// occupies the mesh at a time, with a full drain checkpoint between
	// consecutive layers. Under this mode InferBatch is bit-and-cycle
	// identical to running its inputs through serial Infer calls.
	SerialLayers LayerMode = iota
	// PipelinedLayers admits every inference of a batch into the mesh
	// concurrently and skips the between-layer drain checkpoints: layers
	// of different inferences coexist on the links, keeping the mesh busy
	// through the layer tails and PE latencies that idle it in serial
	// mode. Outputs remain bit-identical to serial execution; BT, cycles
	// and throughput reflect the sustained-traffic regime. Each
	// inference's own layers still execute serially — task dispatch
	// requires every result of the previous layer.
	PipelinedLayers
)

// String implements fmt.Stringer.
func (m LayerMode) String() string {
	switch m {
	case SerialLayers:
		return "serial"
	case PipelinedLayers:
		return "pipelined"
	default:
		return fmt.Sprintf("LayerMode(%d)", int(m))
	}
}

// Platform presets matching the paper's three evaluated sizes.

// Mesh4x4MC2 is the paper's default: a 4×4 mesh with 2 MCs.
func Mesh4x4MC2(g flit.Geometry) Config {
	return platform(4, 4, 2, g)
}

// Mesh8x8MC4 is the paper's 8×8 mesh with 4 MCs.
func Mesh8x8MC4(g flit.Geometry) Config {
	return platform(8, 8, 4, g)
}

// Mesh8x8MC8 is the paper's 8×8 mesh with 8 MCs.
func Mesh8x8MC8(g flit.Geometry) Config {
	return platform(8, 8, 8, g)
}

func platform(w, h, mcs int, g flit.Geometry) Config {
	mesh := noc.Config{Width: w, Height: h, VCs: 4, BufDepth: 4, LinkBits: g.LinkBits}
	return Config{
		Mesh:     mesh,
		Geometry: g,
		MCs:      PerimeterMCs(w, h, mcs),
	}
}

// WithDefaults returns the config with zero-valued knobs resolved — the
// canonical form engines run and platform fingerprints hash.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.MaxSegmentPairs == 0 {
		c.MaxSegmentPairs = 64
	}
	if c.PEComputeCycles == 0 {
		c.PEComputeCycles = 4
	}
	if c.DrainCycleCap == 0 {
		c.DrainCycleCap = 100_000_000
	}
	if canonical, ok := flit.CanonicalLinkCodingName(c.LinkCoding); ok {
		// Every accepted spelling ("none", "NONE", "Gray") resolves to one
		// canonical form — "" for uncoded, the registered name otherwise —
		// so platforms that run identically fingerprint identically.
		// Unknown names stay as written for Validate to reject.
		c.LinkCoding = canonical
	}
	if canonical, ok := noc.CanonicalTopologyName(c.Mesh.Topology); ok {
		// Same contract for the interconnect: "mesh", "MESH" and "" all
		// canonicalize to "", keeping pre-topology fingerprints unchanged.
		c.Mesh.Topology = canonical
	}
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Mesh.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Mesh.LinkBits != c.Geometry.LinkBits {
		return fmt.Errorf("accel: mesh link width %d != geometry link width %d",
			c.Mesh.LinkBits, c.Geometry.LinkBits)
	}
	if len(c.MCs) == 0 {
		return fmt.Errorf("accel: no memory controllers")
	}
	seen := make(map[int]bool, len(c.MCs))
	for _, mc := range c.MCs {
		if mc < 0 || mc >= c.Mesh.Nodes() {
			return fmt.Errorf("accel: MC node %d outside mesh of %d nodes", mc, c.Mesh.Nodes())
		}
		if seen[mc] {
			return fmt.Errorf("accel: duplicate MC node %d", mc)
		}
		seen[mc] = true
	}
	if len(c.MCs) >= c.Mesh.Nodes() {
		return fmt.Errorf("accel: %d MCs leave no PE in a %d-node mesh", len(c.MCs), c.Mesh.Nodes())
	}
	if c.MaxSegmentPairs < 1 {
		return fmt.Errorf("accel: MaxSegmentPairs %d < 1", c.MaxSegmentPairs)
	}
	if c.MaxSegmentPairs > flit.MaxHeaderCount {
		return fmt.Errorf("accel: MaxSegmentPairs %d exceeds %d, the most pairs the task header's 16-bit PairCount field carries",
			c.MaxSegmentPairs, flit.MaxHeaderCount)
	}
	if _, ok := flit.OrderingStrategyByID(c.Ordering); !ok {
		return fmt.Errorf("accel: unknown ordering %d (registered: %v)", int(c.Ordering), flit.OrderingNames())
	}
	if _, ok := flit.LookupLinkCoding(c.LinkCoding); !ok {
		return fmt.Errorf("accel: unknown link coding %q (registered: %v)", c.LinkCoding, flit.LinkCodingNames())
	}
	if len(c.Precisions) > 0 {
		if !c.Geometry.Format.IsFixed() {
			return fmt.Errorf("accel: per-layer precisions require a fixed-point geometry, got %v", c.Geometry.Format)
		}
		for i, bits := range c.Precisions {
			f, err := bitutil.FixedN(bits)
			if err != nil {
				return fmt.Errorf("accel: precision schedule entry %d: %w", i, err)
			}
			// Every scheduled width must form a valid flit grid on the
			// platform's physical link.
			if err := c.Geometry.WithFormat(f).Validate(); err != nil {
				return fmt.Errorf("accel: precision schedule entry %d (%d-bit): %w", i, bits, err)
			}
		}
	}
	return nil
}

// PEs returns the non-MC node IDs in ascending order.
func (c Config) PEs() []int {
	isMC := make(map[int]bool, len(c.MCs))
	for _, mc := range c.MCs {
		isMC[mc] = true
	}
	pes := make([]int, 0, c.Mesh.Nodes()-len(c.MCs))
	for n := 0; n < c.Mesh.Nodes(); n++ {
		if !isMC[n] {
			pes = append(pes, n)
		}
	}
	return pes
}

// PerimeterMCs places count memory controllers evenly around the mesh
// perimeter, walking clockwise from the north-west corner — the paper's
// Fig. 6 attaches MCs (with their ordering units and off-chip memory) at
// the mesh edge. Deterministic: the same (w, h, count) always yields the
// same placement.
//
// Placement is on the terminal (NI) grid, which every topology preserves:
// torus and cmesh re-map terminals onto routers internally, so MC node IDs
// remain valid unchanged under any registered topology.
func PerimeterMCs(w, h, count int) []int {
	cfg := noc.Config{Width: w, Height: h}
	perimeter := perimeterWalk(w, h)
	if count > len(perimeter) {
		count = len(perimeter)
	}
	out := make([]int, 0, count)
	for i := 0; i < count; i++ {
		x, y := perimeter[i*len(perimeter)/count][0], perimeter[i*len(perimeter)/count][1]
		out = append(out, cfg.Node(x, y))
	}
	return out
}

// perimeterWalk lists perimeter coordinates clockwise from (0,0).
func perimeterWalk(w, h int) [][2]int {
	if w == 1 && h == 1 {
		return [][2]int{{0, 0}}
	}
	var walk [][2]int
	for x := 0; x < w; x++ { // top edge, left→right
		walk = append(walk, [2]int{x, 0})
	}
	for y := 1; y < h; y++ { // right edge, top→bottom
		walk = append(walk, [2]int{w - 1, y})
	}
	if h > 1 {
		for x := w - 2; x >= 0; x-- { // bottom edge, right→left
			walk = append(walk, [2]int{x, h - 1})
		}
	}
	if w > 1 {
		for y := h - 2; y >= 1; y-- { // left edge, bottom→top
			walk = append(walk, [2]int{0, y})
		}
	}
	return walk
}
