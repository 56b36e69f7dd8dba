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

// Coding is the state of one bus per (link, image) pair: payload wires
// plus one invert line per segment. The invert lines are a word mask
// parallel to the payload words, with every bit of an inverted segment
// set, so the wires always carry payload XOR inv. Bus (link, v) is words
// [(link·images + v)·words, +words) of wire and inv, so a crossing drives
// all its images over one contiguous run.
type Coding struct {
	width, segBits, words, images int
	wire, inv                     []uint64

	// SWAR constants of Count's lane path (segBits <= 64), replicated
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
// segments that Count can process word by word: segBits must divide 64
// (several segments per word) or be a multiple of 64 (whole words per
// segment), and width must be a multiple of segBits.
func checkGeometry(width, segBits int) error {
	if width <= 0 || segBits <= 0 || width%segBits != 0 || (64%segBits != 0 && segBits%64 != 0) {
		return fmt.Errorf("businvert: bad geometry width=%d segBits=%d", width, segBits)
	}
	return nil
}

// NewCoding builds the bus-invert state of links links carrying images
// wire images of width-bit flits each, with one invert line per
// segBits-wide segment (classic bus-invert uses one line for the whole
// bus; segmented bus-invert scales better for wide links), in one slab.
// width must be a multiple of segBits, and segBits must divide 64 or be a
// multiple of 64.
func NewCoding(width, segBits, links, images int) (*Coding, error) {
	if err := checkGeometry(width, segBits); err != nil {
		return nil, err
	}
	c := &Coding{width: width, segBits: segBits, words: (width + 63) / 64, images: images}
	if segBits <= 64 {
		var lsb uint64
		for b := 0; b < 64; b += segBits {
			lsb |= 1 << uint(b)
		}
		half := uint64(segBits / 2)
		top := uint64(1) << uint(segBits-1)
		c.rounds = bits.TrailingZeros(uint(segBits))
		c.msb = lsb << uint(segBits-1)
		c.gtAdd = lsb * (top - half - 1)
		c.geAdd = lsb * (top - half)
		if segBits == 1 {
			// A one-bit segment never ties; half is 0, so geAdd would
			// carry into the next lane.
			c.geAdd = c.gtAdd
		}
	}
	n := links * images * c.words
	slab := make([]uint64, 2*n)
	c.wire, c.inv = slab[:n:n], slab[n:]
	return c, nil
}

// ExtraLines returns the number of additional wires one bus needs — the
// overhead the paper's §II calls out for this encoding family.
func (c *Coding) ExtraLines() int { return c.width / c.segBits }

// Count drives one crossing of link: payload holds the crossing's images,
// image v in words [v·w, (v+1)·w) where w is one bus's word count, and
// image v goes onto bus (link, v). It adds each image's transitions —
// payload wire flips plus invert-line flips — to bt[v].
//
// Segments up to one word wide are decided a word at a time with no
// per-segment branch: x = payload XOR wire is counted in SWAR lanes one
// segment wide, an add per lane sets the lane's top bit when its count
// passes half the segment (or ties with the invert line already up), and
// those top bits spread into the lane mask m. The wires become payload
// XOR m; the beat costs popcount(x XOR m) payload flips plus one flip per
// lane whose invert line changed. Wider segments sum whole-word popcounts.
func (c *Coding) Count(link int, payload []uint64, bt []int64) {
	w, n := c.words, c.images*c.words
	wires, invs := c.wire[link*n:][:n:n], c.inv[link*n:][:n:n]
	payload, bt = payload[:n:n], bt[:c.images]
	if c.segBits > 64 {
		c.countWide(payload, wires, invs, bt)
		return
	}
	rounds, msb, gtAdd, geAdd := c.rounds, c.msb, c.gtAdd, c.geAdd
	shift := uint(c.segBits - 1)
	// The all-ones lane value: a lane's top bit, moved to its bottom bit,
	// times it fills the lane.
	fill := ^uint64(0) >> (63 - shift)
	k := 0
	for v := range bt {
		t := 0
		for end := k + w; k < end; k++ {
			p := payload[k]
			x := p ^ wires[k]
			cnt := x // lane counts (see laneMasks); unrolled, as a loop ran slower
			if rounds > 0 {
				cnt = cnt&laneMasks[0] + cnt>>1&laneMasks[0]
			}
			if rounds > 1 {
				cnt = cnt&laneMasks[1] + cnt>>2&laneMasks[1]
			}
			if rounds > 2 {
				cnt = cnt&laneMasks[2] + cnt>>4&laneMasks[2]
			}
			if rounds > 3 {
				cnt = cnt&laneMasks[3] + cnt>>8&laneMasks[3]
			}
			if rounds > 4 {
				cnt = cnt&laneMasks[4] + cnt>>16&laneMasks[4]
			}
			if rounds > 5 {
				cnt = cnt&laneMasks[5] + cnt>>32&laneMasks[5]
			}
			prev := invs[k]
			gt := (cnt + gtAdd) & msb
			tie := (cnt + geAdd) & msb &^ gt
			m := ((gt | tie&prev) >> shift) * fill
			wires[k] = p ^ m
			invs[k] = m
			t += bits.OnesCount64(x^m) + bits.OnesCount64((m^prev)&msb)
		}
		bt[v] += int64(t)
	}
}

// countWide is Count for segments of segBits/64 whole words: the segment's
// Hamming distance is the sum of its words' XOR popcounts, and the invert
// mask of each of its words is all ones or all zeros.
func (c *Coding) countWide(payload, wires, invs []uint64, bt []int64) {
	w, span, half := c.words, c.segBits/64, c.segBits/2
	for v := range bt {
		p, wire, inv := payload[v*w:][:w], wires[v*w:][:w], invs[v*w:][:w]
		t := 0
		for k0 := 0; k0 < w; k0 += span {
			dist := 0
			for k := k0; k < k0+span; k++ {
				dist += bits.OnesCount64(p[k] ^ wire[k])
			}
			prev := inv[k0]
			var m uint64
			if dist > half || dist == half && prev != 0 {
				m = ^uint64(0)
				dist = c.segBits - dist
			}
			t += dist + int((m^prev)&1)
			for k := k0; k < k0+span; k++ {
				wire[k] = p[k] ^ m
				inv[k] = m
			}
		}
		bt[v] += int64(t)
	}
}

// Encoder is the one-bus Coding, driven a flit at a time.
type Encoder struct{ Coding }

// NewEncoder builds a bus-invert encoder for width-bit flits using one
// invert line per segBits-wide segment, with NewCoding's geometry rules.
func NewEncoder(width, segBits int) (*Encoder, error) {
	c, err := NewCoding(width, segBits, 1, 1)
	if err != nil {
		return nil, err
	}
	return &Encoder{*c}, nil
}

// Encode drives v onto the bus and returns the encoded pattern (some
// segments possibly inverted), the invert-line values, and the total
// transitions this beat caused — payload wire flips plus invert-line flips.
// It is Drive plus copies of the resulting wire state; per-flit BT counting
// should call Drive directly and skip the allocations.
func (e *Encoder) Encode(v bitutil.Vec) (encoded bitutil.Vec, invert []bool, transitions int) {
	transitions = e.Drive(v)
	invert = make([]bool, e.ExtraLines())
	for s := range invert {
		off := s * e.segBits
		invert[s] = e.inv[off/64]>>uint(off%64)&1 != 0
	}
	return bitutil.FromWords(e.width, e.wire).Clone(), invert, transitions
}

// Drive is Count on the one bus: it updates the bus state for payload v in
// place — no encoded copy, no invert slice — and returns the transitions
// this beat caused. Values are identical to Encode's; only the allocations
// differ.
func (e *Encoder) Drive(v bitutil.Vec) int {
	if v.Width() != e.width {
		panic(fmt.Sprintf("businvert: flit width %d, bus is %d", v.Width(), e.width))
	}
	var bt [1]int64
	e.Count(0, v.Words(), bt[:])
	return int(bt[0])
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
