package nocbt

// Composable platform construction — the v2 replacement for the three
// hardcoded paper presets. NewPlatform assembles an arbitrary accelerator
// platform from functional options: mesh dimensions, memory-controller
// count and placement policy (perimeter, corners, a column, or explicit
// coordinates), flit geometry, transmission ordering, layer mode and
// router buffering. Every combination is validated with a descriptive
// error before a Platform is returned, so a bad configuration cannot reach
// the engine.
//
// The paper's three evaluated platforms are one-line option bundles over
// this constructor (see PaperOptions4x4MC2 and friends).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nocbt/internal/accel"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

// MCPlacement names a memory-controller placement policy.
type MCPlacement int

const (
	// MCPerimeter spreads the MCs evenly around the mesh perimeter,
	// clockwise from the north-west corner — the paper's Fig. 6 layout and
	// the default.
	MCPerimeter MCPlacement = iota
	// MCCorners puts the MCs at the mesh corners (at most four), opposite
	// corners first.
	MCCorners
	// MCColumn stacks the MCs evenly down one column of the mesh (set the
	// column with WithMCColumn) — the one-side memory-channel layout.
	MCColumn
)

// String implements fmt.Stringer.
func (p MCPlacement) String() string {
	switch p {
	case MCPerimeter:
		return "perimeter"
	case MCCorners:
		return "corners"
	case MCColumn:
		return "column"
	default:
		return fmt.Sprintf("MCPlacement(%d)", int(p))
	}
}

// platformSpec accumulates the options; NewPlatform validates it as a
// whole so errors can mention the full context, not just one option.
type platformSpec struct {
	width, height   int
	geometry        Geometry
	ordering        Ordering
	layerMode       LayerMode
	vcs             int
	bufDepth        int
	mcCount         int
	placement       MCPlacement
	mcColumn        int
	mcNodes         []int
	mcCoords        [][2]int
	explicitNodes   bool
	explicitCoords  bool
	maxSegmentPairs int
	peComputeCycles int
	inBandIndex     bool
	linkCoding      string
	precisions      []int
	topology        string
	concentration   int
}

// PlatformOption configures one aspect of a platform under construction.
type PlatformOption func(*platformSpec)

// WithMesh sets the mesh dimensions in routers (width × height). The
// minimum supported mesh is 2×2.
func WithMesh(width, height int) PlatformOption {
	return func(s *platformSpec) { s.width, s.height = width, height }
}

// WithGeometry sets the link/flit format (default: Fixed8).
func WithGeometry(g Geometry) PlatformOption {
	return func(s *platformSpec) { s.geometry = g }
}

// WithOrdering sets the transmission-ordering strategy by wire ID
// (default: O0 baseline). Any registered strategy ID is accepted; resolve
// names with ParseOrdering.
func WithOrdering(o Ordering) PlatformOption {
	return func(s *platformSpec) { s.ordering = o }
}

// WithLinkCoding applies a registered link coding ("gray", "businvert") on
// every mesh link, stacked on top of the ordering. The default ("" or
// "none") is plain binary transmission, the paper's configuration.
func WithLinkCoding(name string) PlatformOption {
	return func(s *platformSpec) { s.linkCoding = name }
}

// WithLayerMode sets the mesh-sharing discipline (default: SerialLayers).
func WithLayerMode(m LayerMode) PlatformOption {
	return func(s *platformSpec) { s.layerMode = m }
}

// WithVCs sets the virtual-channel count per router input port
// (default: 4, the paper's configuration).
func WithVCs(n int) PlatformOption {
	return func(s *platformSpec) { s.vcs = n }
}

// WithBufferDepth sets the flit capacity of each VC buffer (default: 4).
func WithBufferDepth(n int) PlatformOption {
	return func(s *platformSpec) { s.bufDepth = n }
}

// WithMCCount sets how many memory controllers the platform has
// (default: 2). The placement policy decides where they sit.
func WithMCCount(n int) PlatformOption {
	return func(s *platformSpec) { s.mcCount = n }
}

// WithMCPlacement selects the placement policy for WithMCCount MCs
// (default: MCPerimeter).
func WithMCPlacement(p MCPlacement) PlatformOption {
	return func(s *platformSpec) { s.placement = p }
}

// WithMCColumn selects MCColumn placement down the given column
// (0 ≤ x < width).
func WithMCColumn(x int) PlatformOption {
	return func(s *platformSpec) {
		s.placement = MCColumn
		s.mcColumn = x
	}
}

// WithMCNodes places the MCs at explicit node IDs (row-major, 0-based),
// overriding count and placement policy.
func WithMCNodes(nodes ...int) PlatformOption {
	return func(s *platformSpec) {
		s.mcNodes = append([]int(nil), nodes...)
		s.explicitNodes = true
	}
}

// WithMCCoords places the MCs at explicit (x, y) mesh coordinates,
// overriding count and placement policy.
func WithMCCoords(coords ...[2]int) PlatformOption {
	return func(s *platformSpec) {
		s.mcCoords = append([][2]int(nil), coords...)
		s.explicitCoords = true
	}
}

// WithMaxSegmentPairs bounds how many (input, weight) pairs one task
// packet carries before splitting (default: 64; at most 65535, the task
// header's 16-bit pair count).
func WithMaxSegmentPairs(n int) PlatformOption {
	return func(s *platformSpec) { s.maxSegmentPairs = n }
}

// WithPEComputeCycles sets the PE latency between a complete task packet
// and its result injection (default: 4).
func WithPEComputeCycles(n int) PlatformOption {
	return func(s *platformSpec) { s.peComputeCycles = n }
}

// WithInBandIndex makes separated-ordering ship its re-pairing index as
// extra flits, costing BT (default: off, the paper's accounting).
func WithInBandIndex(on bool) PlatformOption {
	return func(s *platformSpec) { s.inBandIndex = on }
}

// WithPrecisions sets a per-layer lane-width schedule for fixed-point
// platforms: one entry per NoC-visible layer (Conv2D/Linear, in model
// order), or a single entry broadcast to every layer. Each entry must be a
// supported fixed-point width (2, 4, 8 or 16 — see FixedWidths). Layers at
// narrower widths pack more lanes per flit and ship proportionally fewer
// flits. The empty schedule (the default) keeps the platform geometry's
// format for every layer.
func WithPrecisions(bits ...int) PlatformOption {
	return func(s *platformSpec) { s.precisions = append([]int(nil), bits...) }
}

// TopologyOption configures the interconnect scheme selected with
// WithTopology.
type TopologyOption func(*platformSpec)

// WithTopology selects a registered interconnect topology by name: "mesh"
// (the paper's platform and the default), "torus", "cmesh", or any scheme
// added through RegisterTopology. Width and height keep meaning the
// terminal (NI) grid under every topology, so MC placement options compose
// unchanged. "mesh" canonicalizes to the empty default, keeping the
// fingerprints of mesh platforms byte-identical to those minted before
// topologies existed.
func WithTopology(name string, opts ...TopologyOption) PlatformOption {
	return func(s *platformSpec) {
		s.topology = name
		for _, opt := range opts {
			opt(s)
		}
	}
}

// WithConcentration sets the terminals-per-router factor of a concentrated
// topology (cmesh supports 2 or 4; 0 selects the topology's default).
func WithConcentration(c int) TopologyOption {
	return func(s *platformSpec) { s.concentration = c }
}

// NewPlatform builds a validated accelerator platform from functional
// options. With no options it returns the paper's default platform:
// a 4×4 mesh, 2 perimeter MCs, fixed-8 geometry, O0 ordering.
//
// Every structural problem — a mesh smaller than 2×2, more MCs than the
// mesh has nodes (or enough to leave no PE), duplicate or out-of-range MC
// coordinates, a geometry whose link cannot carry a whole even number of
// lanes — is reported as a descriptive error instead of a panic.
func NewPlatform(opts ...PlatformOption) (Platform, error) {
	s := platformSpec{
		width:           4,
		height:          4,
		geometry:        Fixed8(),
		vcs:             4,
		bufDepth:        4,
		mcCount:         2,
		mcColumn:        -1,
		maxSegmentPairs: 64,
		peComputeCycles: 4,
	}
	for _, opt := range opts {
		opt(&s)
	}

	if s.width < 2 || s.height < 2 {
		return Platform{}, fmt.Errorf("nocbt: mesh %dx%d is smaller than the minimum 2x2", s.width, s.height)
	}
	// Geometry.Validate rejects unknown lane formats with a descriptive
	// error (Format.Bits no longer panics), so no separate format gate is
	// needed here.
	if err := s.geometry.Validate(); err != nil {
		return Platform{}, fmt.Errorf("nocbt: bad geometry %v: %w", s.geometry, err)
	}
	if s.vcs < 1 {
		return Platform{}, fmt.Errorf("nocbt: need at least 1 virtual channel, got %d", s.vcs)
	}
	if s.bufDepth < 1 {
		return Platform{}, fmt.Errorf("nocbt: need VC buffer depth >= 1, got %d", s.bufDepth)
	}
	if s.maxSegmentPairs < 1 {
		return Platform{}, fmt.Errorf("nocbt: MaxSegmentPairs %d < 1", s.maxSegmentPairs)
	}
	if s.maxSegmentPairs > flit.MaxHeaderCount {
		return Platform{}, fmt.Errorf("nocbt: MaxSegmentPairs %d exceeds %d, the most pairs the task header's 16-bit PairCount field carries",
			s.maxSegmentPairs, flit.MaxHeaderCount)
	}
	if s.peComputeCycles < 1 {
		return Platform{}, fmt.Errorf("nocbt: PEComputeCycles %d < 1", s.peComputeCycles)
	}
	if _, ok := flit.OrderingStrategyByID(s.ordering); !ok {
		return Platform{}, fmt.Errorf("nocbt: unknown ordering %d (registered: %v)", int(s.ordering), flit.OrderingNames())
	}
	if _, ok := flit.LookupLinkCoding(s.linkCoding); !ok {
		return Platform{}, fmt.Errorf("nocbt: unknown link coding %q (registered: %v)", s.linkCoding, flit.LinkCodingNames())
	}
	if s.explicitNodes && s.explicitCoords {
		return Platform{}, fmt.Errorf("nocbt: WithMCNodes and WithMCCoords are mutually exclusive")
	}
	topology, ok := noc.CanonicalTopologyName(s.topology)
	if !ok {
		return Platform{}, fmt.Errorf("nocbt: unknown topology %q (registered: %v)", s.topology, noc.TopologyNames())
	}

	nodes := s.width * s.height
	var mcs []int
	var err error
	switch {
	case s.explicitNodes:
		// Range, duplicate and no-PE-left checks happen in the final
		// Config.Validate pass, which covers every placement path.
		mcs = append([]int(nil), s.mcNodes...)
	case s.explicitCoords:
		mcs, err = accel.CoordMCs(s.width, s.height, s.mcCoords)
	default:
		if s.mcCount < 1 {
			return Platform{}, fmt.Errorf("nocbt: need at least 1 memory controller, got %d", s.mcCount)
		}
		if s.mcCount > nodes {
			return Platform{}, fmt.Errorf("nocbt: %d MCs exceed the %d nodes of a %dx%d mesh",
				s.mcCount, nodes, s.width, s.height)
		}
		switch s.placement {
		case MCPerimeter:
			// PerimeterMCs clamps oversized counts for its legacy callers;
			// the v2 constructor's contract is rejection, not clamping.
			if perimeter := 2*(s.width+s.height) - 4; s.mcCount > perimeter {
				return Platform{}, fmt.Errorf("nocbt: perimeter placement supports at most %d MCs on a %dx%d mesh, got %d",
					perimeter, s.width, s.height, s.mcCount)
			}
			mcs = accel.PerimeterMCs(s.width, s.height, s.mcCount)
		case MCCorners:
			mcs, err = accel.CornerMCs(s.width, s.height, s.mcCount)
		case MCColumn:
			if s.mcColumn < 0 {
				return Platform{}, fmt.Errorf("nocbt: column placement needs WithMCColumn")
			}
			mcs, err = accel.ColumnMCs(s.width, s.height, s.mcColumn, s.mcCount)
		default:
			return Platform{}, fmt.Errorf("nocbt: unknown MC placement %v", s.placement)
		}
	}
	if err != nil {
		return Platform{}, fmt.Errorf("nocbt: %w", err)
	}

	cfg := Platform{
		Mesh: noc.Config{
			Width:         s.width,
			Height:        s.height,
			Topology:      topology,
			Concentration: s.concentration,
			VCs:           s.vcs,
			BufDepth:      s.bufDepth,
			LinkBits:      s.geometry.LinkBits,
		},
		Geometry:        s.geometry,
		Ordering:        s.ordering,
		LinkCoding:      s.linkCoding,
		LayerMode:       s.layerMode,
		InBandIndex:     s.inBandIndex,
		MCs:             mcs,
		MaxSegmentPairs: s.maxSegmentPairs,
		PEComputeCycles: s.peComputeCycles,
		Precisions:      s.precisions,
	}
	if err := cfg.Validate(); err != nil {
		return Platform{}, fmt.Errorf("nocbt: %w", err)
	}
	return cfg, nil
}

// PlatformFingerprint returns a stable content address for a platform
// configuration: the SHA-256 hex digest of its canonical JSON encoding
// (after default resolution, so a zero DrainCycleCap and the explicit
// default hash identically). Two platforms with the same fingerprint run
// bit-identical simulations; serving-layer caches and engine pools key
// their shards by this string.
func PlatformFingerprint(p Platform) (string, error) {
	b, err := json.Marshal(p.WithDefaults())
	if err != nil {
		return "", fmt.Errorf("nocbt: fingerprinting platform: %w", err)
	}
	h := sha256.New()
	h.Write([]byte("platform\x00"))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// MustPlatform is NewPlatform for statically-known-good option bundles: it
// panics on error. Intended for package-level preset construction, not for
// user input.
func MustPlatform(opts ...PlatformOption) Platform {
	cfg, err := NewPlatform(opts...)
	if err != nil {
		panic(err)
	}
	return cfg
}

// PaperOptions4x4MC2 is the option bundle for the paper's default
// platform: 4×4 mesh, 2 perimeter MCs.
func PaperOptions4x4MC2(g Geometry) []PlatformOption {
	return []PlatformOption{WithMesh(4, 4), WithMCCount(2), WithGeometry(g)}
}

// PaperOptions8x8MC4 is the option bundle for the paper's 8×8 mesh with
// 4 perimeter MCs.
func PaperOptions8x8MC4(g Geometry) []PlatformOption {
	return []PlatformOption{WithMesh(8, 8), WithMCCount(4), WithGeometry(g)}
}

// PaperOptions8x8MC8 is the option bundle for the paper's 8×8 mesh with
// 8 perimeter MCs.
func PaperOptions8x8MC8(g Geometry) []PlatformOption {
	return []PlatformOption{WithMesh(8, 8), WithMCCount(8), WithGeometry(g)}
}
