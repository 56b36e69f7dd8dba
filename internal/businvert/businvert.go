// Package businvert implements bus-invert coding (Stan & Burleson [14] in
// the paper's related work) as a baseline bit-transition reduction method.
//
// Bus-invert transmits either the flit or its complement, whichever is
// closer in Hamming distance to the current wire state, and signals the
// choice on one extra invert line per segment. The paper contrasts its
// ordering approach with exactly this class of encodings: bus-invert needs
// extra wires and decode logic, ordering does not. Implementing it lets the
// benchmarks compare both techniques on identical streams.
package businvert

import (
	"fmt"
	"math/bits"

	"nocbt/internal/bitutil"
)

// Encoder holds the wire state of one link (payload wires plus one invert
// line per segment). The invert lines are a word mask parallel to the
// payload words, with every bit of an inverted segment set, so the wires
// always carry payload XOR inv.
type Encoder struct {
	width    int
	segBits  int
	segments int
	wire     bitutil.Vec
	inv      []uint64

	// SWAR constants of Drive's lane path (segBits <= 64), replicated
	// across the segBits-wide lanes of a word.
	rounds int    // pairwise-add rounds that turn bits into lane counts
	msb    uint64 // top bit of every lane
	gtAdd  uint64 // count + gtAdd sets the lane's top bit iff count > segBits/2
	geAdd  uint64 // count + geAdd sets the lane's top bit iff count >= segBits/2
}

// laneMasks[i] selects the low half of every 2^(i+1)-bit lane: round i of
// the SWAR count adds neighbouring 2^i-bit counts into 2^(i+1)-bit lanes.
var laneMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// checkGeometry reports whether width-bit flits split into segBits-wide
// segments that Drive can process word by word: segBits must divide 64
// (several segments per word) or be a multiple of 64 (whole words per
// segment), and width must be a multiple of segBits.
func checkGeometry(width, segBits int) error {
	if width <= 0 || segBits <= 0 || width%segBits != 0 || (64%segBits != 0 && segBits%64 != 0) {
		return fmt.Errorf("businvert: bad geometry width=%d segBits=%d", width, segBits)
	}
	return nil
}

// NewEncoder builds a bus-invert encoder for width-bit flits using one
// invert line per segBits-wide segment (classic bus-invert uses one line
// for the whole bus; segmented bus-invert scales better for wide links).
// width must be a multiple of segBits, and segBits must divide 64 or be a
// multiple of 64.
func NewEncoder(width, segBits int) (*Encoder, error) {
	encs, err := NewEncoders(width, segBits, 1)
	if err != nil {
		return nil, err
	}
	return &encs[0], nil
}

// NewEncoders builds n independent encoders as NewEncoder does, over one
// slice of encoders and one slab of wire and invert-line words — the
// batch a simulator installing a coding on every link wants.
func NewEncoders(width, segBits, n int) ([]Encoder, error) {
	if err := checkGeometry(width, segBits); err != nil {
		return nil, err
	}
	proto := Encoder{width: width, segBits: segBits, segments: width / segBits}
	if segBits <= 64 {
		var lsb uint64
		for b := 0; b < 64; b += segBits {
			lsb |= 1 << uint(b)
		}
		half := uint64(segBits / 2)
		top := uint64(1) << uint(segBits-1)
		proto.rounds = bits.TrailingZeros(uint(segBits))
		proto.msb = lsb << uint(segBits-1)
		proto.gtAdd = lsb * (top - half - 1)
		proto.geAdd = lsb * (top - half)
		if segBits == 1 {
			// A one-bit segment never ties; half is 0, so geAdd would
			// carry into the next lane.
			proto.geAdd = proto.gtAdd
		}
	}
	words := (width + 63) / 64
	slab := make([]uint64, 2*n*words)
	encs := make([]Encoder, n)
	for i := range encs {
		w := slab[2*i*words : (2*i+2)*words : (2*i+2)*words]
		encs[i] = proto
		encs[i].wire = bitutil.FromWords(width, w[:words:words])
		encs[i].inv = w[words:]
	}
	return encs, nil
}

// ExtraLines returns the number of additional wires the encoding needs —
// the overhead the paper's §II calls out for this encoding family.
func (e *Encoder) ExtraLines() int { return e.segments }

// Encode drives v onto the bus and returns the encoded pattern (some
// segments possibly inverted), the invert-line values, and the total
// transitions this beat caused — payload wire flips plus invert-line flips.
// It is Drive plus copies of the resulting wire state; per-flit BT counting
// should call Drive directly and skip the allocations.
func (e *Encoder) Encode(v bitutil.Vec) (encoded bitutil.Vec, invert []bool, transitions int) {
	transitions = e.Drive(v)
	invert = make([]bool, e.segments)
	for s := range invert {
		off := s * e.segBits
		invert[s] = e.inv[off/64]>>uint(off%64)&1 != 0
	}
	return e.wire.Clone(), invert, transitions
}

// Drive updates the bus state for payload v in place — no encoded copy, no
// invert slice — and returns the transitions this beat caused. Values are
// identical to Encode's; only the allocations differ.
//
// Segments up to one word wide are decided a word at a time with no
// per-segment branch: x = payload XOR wire is counted in SWAR lanes one
// segment wide, an add per lane sets the lane's top bit when its count
// passes half the segment (or ties with the invert line already up), and
// those top bits spread into the lane mask m. The wires become payload
// XOR m; the beat costs popcount(x XOR m) payload flips plus one flip per
// lane whose invert line changed. Wider segments sum whole-word popcounts.
func (e *Encoder) Drive(v bitutil.Vec) (transitions int) {
	if v.Width() != e.width {
		panic(fmt.Sprintf("businvert: flit width %d, bus is %d", v.Width(), e.width))
	}
	payload, wire := v.Words(), e.wire.Words()
	if e.segBits > 64 {
		return e.driveWide(payload, wire)
	}
	wire, inv := wire[:len(payload)], e.inv[:len(payload)]
	shift := uint(e.segBits - 1)
	for k, p := range payload {
		x := p ^ wire[k]
		c := x
		for r := 0; r < e.rounds; r++ {
			c = c&laneMasks[r] + c>>(1<<uint(r))&laneMasks[r]
		}
		prev := inv[k]
		gt := (c + e.gtAdd) & e.msb
		tie := (c + e.geAdd) & e.msb &^ gt
		up := gt | tie&prev
		// Each lane's top bit, moved to its bottom bit, times the all-ones
		// lane value fills the lane.
		m := (up >> shift) * (^uint64(0) >> (63 - shift))
		wire[k] = p ^ m
		inv[k] = m
		transitions += bits.OnesCount64(x^m) + bits.OnesCount64((m^prev)&e.msb)
	}
	return transitions
}

// driveWide is Drive for segments of segBits/64 whole words: the segment's
// Hamming distance is the sum of its words' XOR popcounts, and the invert
// mask of each of its words is all ones or all zeros.
func (e *Encoder) driveWide(payload, wire []uint64) (transitions int) {
	span := e.segBits / 64
	half := e.segBits / 2
	for k0 := 0; k0 < len(payload); k0 += span {
		dist := 0
		for k := k0; k < k0+span; k++ {
			dist += bits.OnesCount64(payload[k] ^ wire[k])
		}
		prev := e.inv[k0]
		var m uint64
		if dist > half || dist == half && prev != 0 {
			m = ^uint64(0)
			dist = e.segBits - dist
		}
		transitions += dist + int((m^prev)&1)
		for k := k0; k < k0+span; k++ {
			wire[k] = payload[k] ^ m
			e.inv[k] = m
		}
	}
	return transitions
}

// Decode recovers the original flit from an encoded pattern and its invert
// lines — the receiver-side logic whose cost the ordering approach avoids.
// It panics unless segBits is a geometry NewEncoder accepts for the
// pattern's width and invert holds exactly one line per segment.
func Decode(encoded bitutil.Vec, invert []bool, segBits int) bitutil.Vec {
	if err := checkGeometry(encoded.Width(), segBits); err != nil {
		panic(err.Error())
	}
	if segs := encoded.Width() / segBits; len(invert) != segs {
		panic(fmt.Sprintf("businvert: %d invert lines, bus has %d segments", len(invert), segs))
	}
	out := encoded.Clone()
	words := out.Words()
	for k := range words {
		words[k] ^= lineMask(invert, k, segBits)
	}
	return out
}

// lineMask returns the invert mask of backing word k: every bit of each
// segment in that word whose invert line is up.
func lineMask(invert []bool, k, segBits int) uint64 {
	if segBits >= 64 {
		if invert[k*64/segBits] {
			return ^uint64(0)
		}
		return 0
	}
	ones := ^uint64(0) >> uint(64-segBits)
	var m uint64
	for s, b := k*64/segBits, 0; s < len(invert) && b < 64; s, b = s+1, b+segBits {
		if invert[s] {
			m |= ones << uint(b)
		}
	}
	return m
}

// StreamTransitions encodes a whole flit stream and returns total
// transitions (payload + invert lines), for comparison against
// core.StreamTransitions of the same stream.
func StreamTransitions(flits []bitutil.Vec, segBits int) (int, error) {
	if len(flits) == 0 {
		return 0, nil
	}
	enc, err := NewEncoder(flits[0].Width(), segBits)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, f := range flits {
		total += enc.Drive(f)
	}
	return total, nil
}
