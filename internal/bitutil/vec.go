// Package bitutil provides fixed-width bit vectors and bit-transition
// primitives used throughout the repository.
//
// A bit transition (BT) is a single wire changing state between two
// consecutive values driven onto a link: a '0'→'1' or '1'→'0' flip. For two
// equal-width patterns a and b the number of transitions is popcount(a XOR b).
// Every BT measurement in this repository bottoms out in this package.
package bitutil

import (
	"fmt"
	"math/bits"
	"strings"
)

// wordBits is the number of bits in one backing word of a Vec.
const wordBits = 64

// Vec is a fixed-width bit vector. The zero value is an empty vector of
// width 0; use NewVec to create a vector of a given width.
//
// Bit index 0 is the least-significant bit of the first backing word. All
// operations that combine two vectors require equal widths and panic
// otherwise: width mismatches are programming errors, not runtime
// conditions.
type Vec struct {
	words []uint64
	width int
}

// NewVec returns an all-zero vector that is width bits wide.
func NewVec(width int) Vec {
	if width < 0 {
		panic(fmt.Sprintf("bitutil: negative width %d", width))
	}
	return Vec{
		words: make([]uint64, (width+wordBits-1)/wordBits),
		width: width,
	}
}

// FromWords wraps an existing backing-word slice as a width-bit vector
// WITHOUT copying: the vector aliases words. len(words) must be exactly the
// word count a NewVec of that width would allocate, and any bits above width
// in the last word must be zero (they would corrupt popcounts). This is the
// arena constructor — callers packing many vectors into one large []uint64
// (e.g. a trace recorder's payload log) use it to avoid one allocation per
// vector.
func FromWords(width int, words []uint64) Vec {
	if width < 0 {
		panic(fmt.Sprintf("bitutil: negative width %d", width))
	}
	if want := (width + wordBits - 1) / wordBits; len(words) != want {
		panic(fmt.Sprintf("bitutil: %d backing words for width %d, want %d", len(words), width, want))
	}
	if width%wordBits != 0 && len(words) > 0 {
		if hi := words[len(words)-1] >> (uint(width) % wordBits); hi != 0 {
			panic(fmt.Sprintf("bitutil: bits set above width %d", width))
		}
	}
	return Vec{words: words, width: width}
}

// Image returns image i of v, read as a row of width-bit images, each
// starting on a backing word: the width-bit vector over words
// [i·w, (i+1)·w) of v, where w is the word count of a width-bit vector.
// The image aliases v's backing store, so writing it writes v; building it
// allocates nothing. Every image must keep its bits above width zero.
// Image 0 of a vector width bits wide is the vector itself.
func (v Vec) Image(i, width int) Vec {
	if i == 0 && width == v.width {
		return v
	}
	w := (width + wordBits - 1) / wordBits
	return Vec{words: v.words[i*w : (i+1)*w : (i+1)*w], width: width}
}

// Width returns the vector width in bits.
func (v Vec) Width() int { return v.width }

// Words returns the backing words of v. The returned slice is the live
// backing store; callers must not modify it unless they own v.
func (v Vec) Words() []uint64 { return v.words }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return Vec{words: w, width: v.width}
}

// CopyFrom overwrites v's bits with src's. Widths must match.
func (v *Vec) CopyFrom(src Vec) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

// Bit reports whether bit i is set.
func (v Vec) Bit(i int) bool {
	v.mustContain(i)
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// SetBit sets bit i to b.
func (v *Vec) SetBit(i int, b bool) {
	v.mustContain(i)
	mask := uint64(1) << (uint(i) % wordBits)
	if b {
		v.words[i/wordBits] |= mask
	} else {
		v.words[i/wordBits] &^= mask
	}
}

// SetField writes the low `width` bits of value at bit offset `off`.
// width must be in [0, 64] and the field must lie inside the vector.
func (v *Vec) SetField(off, width int, value uint64) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitutil: field width %d out of range", width))
	}
	if width == 0 {
		return
	}
	if off < 0 || off+width > v.width {
		panic(fmt.Sprintf("bitutil: field [%d,%d) outside vector of width %d", off, off+width, v.width))
	}
	if width < 64 {
		value &= (1 << uint(width)) - 1
	}
	w, b := off/wordBits, uint(off%wordBits)
	lowBits := wordBits - int(b)
	if lowBits >= width {
		var mask uint64
		if width == 64 {
			mask = ^uint64(0)
		} else {
			mask = (1<<uint(width) - 1) << b
		}
		v.words[w] = v.words[w]&^mask | value<<b
		return
	}
	// The field straddles two backing words.
	lowMask := ^uint64(0) << b
	v.words[w] = v.words[w]&^lowMask | value<<b
	hi := width - lowBits
	hiMask := uint64(1)<<uint(hi) - 1
	v.words[w+1] = v.words[w+1]&^hiMask | value>>uint(lowBits)
}

// Field reads the `width`-bit field starting at bit offset `off`.
func (v Vec) Field(off, width int) uint64 {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitutil: field width %d out of range", width))
	}
	if width == 0 {
		return 0
	}
	if off < 0 || off+width > v.width {
		panic(fmt.Sprintf("bitutil: field [%d,%d) outside vector of width %d", off, off+width, v.width))
	}
	w, b := off/wordBits, uint(off%wordBits)
	lowBits := wordBits - int(b)
	var out uint64
	if lowBits >= width {
		out = v.words[w] >> b
	} else {
		out = v.words[w]>>b | v.words[w+1]<<uint(lowBits)
	}
	if width < 64 {
		out &= 1<<uint(width) - 1
	}
	return out
}

// OnesCount returns the number of set bits in v.
func (v Vec) OnesCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Transitions returns the number of bit positions where v and other differ:
// the bit transitions a w-bit link experiences when the wire state changes
// from v to other.
func (v Vec) Transitions(other Vec) int {
	v.mustMatch(other)
	n := 0
	for i, w := range v.words {
		n += bits.OnesCount64(w ^ other.words[i])
	}
	return n
}

// TransitionsAt returns a per-bit-position transition indicator slice:
// out[i] is true when bit i differs between v and other. Used for the
// per-position transition-probability figures.
func (v Vec) TransitionsAt(other Vec) []bool {
	v.mustMatch(other)
	out := make([]bool, v.width)
	for i := range out {
		out[i] = v.Bit(i) != other.Bit(i)
	}
	return out
}

// Equal reports whether v and other have identical width and bits.
func (v Vec) Equal(other Vec) bool {
	if v.width != other.width {
		return false
	}
	for i, w := range v.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Zero reports whether all bits are clear.
func (v Vec) Zero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears every bit in place.
func (v *Vec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// String renders the vector MSB-first as a binary string, nibble-grouped.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.width + v.width/4)
	for i := v.width - 1; i >= 0; i-- {
		if v.Bit(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
		if i != 0 && i%4 == 0 {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func (v Vec) mustMatch(other Vec) {
	if v.width != other.width {
		panic(fmt.Sprintf("bitutil: width mismatch %d vs %d", v.width, other.width))
	}
}

func (v Vec) mustContain(i int) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitutil: bit %d outside vector of width %d", i, v.width))
	}
}
