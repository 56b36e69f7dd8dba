// Package flit implements the paper's packet and flit formats: half-half
// flitization of DNN tasks (Fig. 2), the three ordering configurations
// (O0 baseline, O1 affiliated, O2 separated), header encoding, and the
// separated-ordering index side-channel.
package flit

import (
	"errors"
	"fmt"

	"nocbt/internal/bitutil"
)

// Geometry describes a link/flit format. The paper evaluates two:
// 512-bit links carrying 16 float-32 values and 128-bit links carrying
// 16 fixed-8 values.
type Geometry struct {
	// LinkBits is the link (and flit payload) width in bits.
	LinkBits int
	// Format is the lane value encoding.
	Format bitutil.Format
}

// NewGeometry builds a validated geometry from a link width and lane
// format — the construction path that rejects unknown formats and
// impossible lane grids with descriptive errors instead of letting them
// reach lane arithmetic.
func NewGeometry(linkBits int, format bitutil.Format) (Geometry, error) {
	g := Geometry{LinkBits: linkBits, Format: format}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// FixedGeometry returns the 128-bit-link geometry with `bits`-wide
// fixed-point lanes: the paper's fixed-8 flit at bits == 8, and the
// mixed-precision variants that pack 32 (4-bit) or 64 (2-bit) lanes into
// the same physical link at narrower widths.
func FixedGeometry(bits int) (Geometry, error) {
	f, err := bitutil.FixedN(bits)
	if err != nil {
		return Geometry{}, fmt.Errorf("flit: %w", err)
	}
	return NewGeometry(128, f)
}

// WithFormat returns the geometry with the lane format swapped and the
// physical link width kept — how a per-layer precision schedule derives
// each layer's flit grid from the platform geometry.
func (g Geometry) WithFormat(f bitutil.Format) Geometry {
	g.Format = f
	return g
}

// Validate reports whether the geometry is usable: the lane format must be
// known, and the link must hold a whole, even number of lanes (half-half
// flitization needs an even count) and enough room for the packet header
// fields. Every failure — an unknown format included — is a descriptive
// error, never a panic: geometries arrive from configuration and serving
// requests, not just from code.
func (g Geometry) Validate() error {
	if err := g.Format.Valid(); err != nil {
		return fmt.Errorf("flit: %w", err)
	}
	if g.LinkBits <= 0 {
		return fmt.Errorf("flit: non-positive link width %d", g.LinkBits)
	}
	lw := g.Format.Bits()
	if g.LinkBits%lw != 0 {
		return fmt.Errorf("flit: link width %d not a multiple of lane width %d", g.LinkBits, lw)
	}
	if g.Lanes()%2 != 0 {
		return fmt.Errorf("flit: odd lane count %d; half-half flitization needs an even count", g.Lanes())
	}
	if g.LinkBits < headerBits {
		return fmt.Errorf("flit: link width %d cannot hold %d-bit header", g.LinkBits, headerBits)
	}
	return nil
}

// Lanes returns the number of values one flit carries (0 for an unknown
// format, which Validate rejects before any lane arithmetic runs).
func (g Geometry) Lanes() int {
	lw := g.Format.Bits()
	if lw == 0 {
		return 0
	}
	return g.LinkBits / lw
}

// HalfLanes returns the lane count of each half of a half-half flit:
// inputs occupy the left (low) half, weights the right (high) half.
func (g Geometry) HalfLanes() int { return g.Lanes() / 2 }

// LaneBits returns the width of one lane in bits.
func (g Geometry) LaneBits() int { return g.Format.Bits() }

// String implements fmt.Stringer.
func (g Geometry) String() string {
	return fmt.Sprintf("%d-bit link, %d×%s", g.LinkBits, g.Lanes(), g.Format)
}

// Ordering selects the paper's transmission-ordering configuration.
type Ordering int

const (
	// Baseline (O0) transmits pairs in their natural task order.
	Baseline Ordering = iota
	// Affiliated (O1) sorts (weight, input) pairs by descending weight
	// popcount; inputs stay attached to their weights (§IV-A).
	Affiliated
	// Separated (O2) sorts weights and inputs independently by their own
	// popcounts and ships a minimal-bit-width re-pairing index (§IV-B).
	Separated
)

// String implements fmt.Stringer: the registered strategy name (the paper's
// O0/O1/O2 for the built-in trio) or a numeric fallback for unregistered IDs.
func (o Ordering) String() string {
	if s, ok := OrderingStrategyByID(o); ok {
		return s.Name()
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// Orderings lists the three evaluated configurations in paper order.
func Orderings() []Ordering { return []Ordering{Baseline, Affiliated, Separated} }

// ErrBadGeometry wraps geometry validation failures surfaced by builders.
var ErrBadGeometry = errors.New("flit: bad geometry")
