package businvert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocbt/internal/bitutil"
)

func randVec(width int, rng *rand.Rand) bitutil.Vec {
	v := bitutil.NewVec(width)
	for b := 0; b < width; b += 64 {
		w := 64
		if b+w > width {
			w = width - b
		}
		v.SetField(b, w, rng.Uint64())
	}
	return v
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(128, 32); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	// {96, 24}: 24-bit segments neither divide a 64-bit word nor span
	// whole words, so Drive could not count them lane-parallel.
	for _, bad := range [][2]int{{0, 8}, {128, 0}, {128, 33}, {96, 24}, {192, 96}} {
		if _, err := NewEncoder(bad[0], bad[1]); err == nil {
			t.Errorf("geometry %v accepted", bad)
		}
	}
}

func TestExtraLines(t *testing.T) {
	e, err := NewEncoder(128, 32)
	if err != nil {
		t.Fatal(err)
	}
	if e.ExtraLines() != 4 {
		t.Errorf("ExtraLines = %d, want 4", e.ExtraLines())
	}
}

func TestEncodeInvertsMajorityFlip(t *testing.T) {
	e, err := NewEncoder(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Wire starts at zero; sending 0xFF would flip all 8 bits, so the
	// encoder must invert: 1 invert-line flip instead of 8 wire flips.
	v := bitutil.NewVec(8)
	v.SetField(0, 8, 0xFF)
	encoded, invert, transitions := e.Encode(v)
	if !invert[0] {
		t.Fatal("encoder did not invert a majority-flip beat")
	}
	if !encoded.Zero() {
		t.Errorf("encoded pattern %s, want all-zero", encoded)
	}
	if transitions != 1 {
		t.Errorf("transitions = %d, want 1 (invert line only)", transitions)
	}
}

func TestEncodeKeepsMinorityFlip(t *testing.T) {
	e, err := NewEncoder(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := bitutil.NewVec(8)
	v.SetField(0, 8, 0x03) // 2 of 8 bits flip: below majority
	_, invert, transitions := e.Encode(v)
	if invert[0] {
		t.Error("encoder inverted a minority-flip beat")
	}
	if transitions != 2 {
		t.Errorf("transitions = %d, want 2", transitions)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e, err := NewEncoder(128, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := randVec(128, rng)
		encoded, invert, _ := e.Encode(v)
		back := Decode(encoded, invert, 32)
		if !back.Equal(v) {
			t.Fatalf("round trip failed at flit %d", i)
		}
	}
}

// TestPerSegmentBound verifies the classic bus-invert guarantee: per
// segment, payload transitions never exceed ⌈segBits/2⌉, so total per beat
// is bounded by segments × (segBits/2 + 1) counting invert lines.
func TestPerSegmentBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const width, seg = 64, 8
	e, err := NewEncoder(width, seg)
	if err != nil {
		t.Fatal(err)
	}
	bound := (width / seg) * (seg/2 + 1)
	for i := 0; i < 500; i++ {
		_, _, transitions := e.Encode(randVec(width, rng))
		if transitions > bound {
			t.Fatalf("beat %d: %d transitions exceed bound %d", i, transitions, bound)
		}
	}
}

// TestNeverWorseThanRawQuick: including invert-line flips, bus-invert never
// exceeds raw transitions by more than one line flip per segment, and its
// payload transitions alone never exceed raw.
func TestNeverWorseThanRawQuick(t *testing.T) {
	f := func(raw [4]uint64) bool {
		const width, seg = 64, 16
		e, err := NewEncoder(width, seg)
		if err != nil {
			return false
		}
		wire := bitutil.NewVec(width)
		for _, r := range raw {
			v := bitutil.NewVec(width)
			v.SetField(0, 64, r)
			rawT := wire.Transitions(v)
			_, _, encT := e.Encode(v)
			wire.CopyFrom(v)
			if encT > rawT+width/seg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStreamTransitionsComparesToRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	flits := make([]bitutil.Vec, 200)
	for i := range flits {
		flits[i] = randVec(128, rng)
	}
	encoded, err := StreamTransitions(flits, 32)
	if err != nil {
		t.Fatal(err)
	}
	raw := 0
	wire := bitutil.NewVec(128)
	for _, f := range flits {
		raw += wire.Transitions(f)
		wire.CopyFrom(f)
	}
	// On uniform random data bus-invert must save transitions overall.
	if encoded >= raw {
		t.Errorf("bus-invert %d transitions not below raw %d on random data", encoded, raw)
	}
	// And the saving on random data is bounded (~25% is the literature
	// figure for segmented bus-invert; allow a broad band).
	saving := 1 - float64(encoded)/float64(raw)
	if saving < 0.02 || saving > 0.5 {
		t.Errorf("bus-invert saving %.2f outside plausible band", saving)
	}
}

func TestStreamTransitionsEmpty(t *testing.T) {
	got, err := StreamTransitions(nil, 8)
	if err != nil || got != 0 {
		t.Errorf("empty stream: %d, %v", got, err)
	}
}

func TestEncodeWidthMismatchPanics(t *testing.T) {
	e, err := NewEncoder(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	e.Encode(bitutil.NewVec(32))
}

func TestTieKeepsInvertLine(t *testing.T) {
	// With exactly half the bits flipping, the encoder must keep the
	// current invert-line state rather than toggle it.
	e, err := NewEncoder(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := bitutil.NewVec(8)
	v.SetField(0, 8, 0x0F) // 4 of 8 flip from zero wire: a tie
	_, invert, transitions := e.Encode(v)
	if invert[0] {
		t.Error("tie toggled the invert line")
	}
	if transitions != 4 {
		t.Errorf("transitions = %d, want 4", transitions)
	}
}

// naiveEncoder is the original per-bit reference implementation of the
// encoder, kept verbatim in the tests as the oracle for the word-granular
// Drive kernel: same tie rule, same invert-line accounting, one bit at a
// time.
type naiveEncoder struct {
	width    int
	segBits  int
	segments int
	wire     bitutil.Vec
	invWire  []bool
}

func newNaiveEncoder(width, segBits int) *naiveEncoder {
	return &naiveEncoder{
		width:    width,
		segBits:  segBits,
		segments: width / segBits,
		wire:     bitutil.NewVec(width),
		invWire:  make([]bool, width/segBits),
	}
}

func (e *naiveEncoder) encode(v bitutil.Vec) (encoded bitutil.Vec, invert []bool, transitions int) {
	encoded = v.Clone()
	invert = make([]bool, e.segments)
	for s := 0; s < e.segments; s++ {
		off := s * e.segBits
		dist := 0
		for b := 0; b < e.segBits; b++ {
			if encoded.Bit(off+b) != e.wire.Bit(off+b) {
				dist++
			}
		}
		doInvert := dist > e.segBits/2
		if dist*2 == e.segBits {
			doInvert = e.invWire[s]
		}
		if doInvert {
			for b := 0; b < e.segBits; b++ {
				encoded.SetBit(off+b, !encoded.Bit(off+b))
			}
			dist = e.segBits - dist
		}
		invert[s] = doInvert
		transitions += dist
		if doInvert != e.invWire[s] {
			transitions++
		}
		e.invWire[s] = doInvert
	}
	e.wire.CopyFrom(encoded)
	return encoded, invert, transitions
}

// TestDriveMatchesNaiveReference drives identical random streams through the
// word-parallel kernel and the per-bit reference and requires bit-identical
// wire state, invert lines and transition counts at every beat, across
// geometries covering every lane width, a partial last word, word-aligned
// segments and segments wider than one backing word.
func TestDriveMatchesNaiveReference(t *testing.T) {
	for _, geo := range [][2]int{{8, 1}, {64, 2}, {100, 4}, {8, 8}, {64, 8}, {128, 8}, {48, 16}, {96, 32}, {128, 32}, {128, 64}, {128, 128}, {256, 128}, {384, 192}, {512, 8}} {
		width, segBits := geo[0], geo[1]
		fast, err := NewEncoder(width, segBits)
		if err != nil {
			t.Fatalf("geometry %v: %v", geo, err)
		}
		naive := newNaiveEncoder(width, segBits)
		rng := rand.New(rand.NewSource(int64(width*1000 + segBits)))
		for beat := 0; beat < 200; beat++ {
			v := randVec(width, rng)
			wantEnc, wantInv, wantT := naive.encode(v)
			gotEnc, gotInv, gotT := fast.Encode(v.Clone())
			if gotT != wantT {
				t.Fatalf("geometry %v beat %d: transitions %d, reference %d", geo, beat, gotT, wantT)
			}
			if !gotEnc.Equal(wantEnc) {
				t.Fatalf("geometry %v beat %d: encoded\n%s\nreference\n%s", geo, beat, gotEnc, wantEnc)
			}
			for s := range wantInv {
				if gotInv[s] != wantInv[s] {
					t.Fatalf("geometry %v beat %d: invert[%d] = %v, reference %v", geo, beat, s, gotInv[s], wantInv[s])
				}
			}
		}
	}
}

// TestDriveEncodeSameTransitions pins Drive and Encode to identical
// transition sequences over one stream: Encode is documented as Drive plus
// copies, never a different computation.
func TestDriveEncodeSameTransitions(t *testing.T) {
	a, err := NewEncoder(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEncoder(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for beat := 0; beat < 100; beat++ {
		v := randVec(128, rng)
		_, _, te := a.Encode(v)
		td := b.Drive(v)
		if te != td {
			t.Fatalf("beat %d: Encode %d transitions, Drive %d", beat, te, td)
		}
	}
}

// TestDriveAllocFree verifies the steady-state kernel does not allocate —
// the property the simulator's per-flit BT counting relies on.
func TestDriveAllocFree(t *testing.T) {
	e, err := NewEncoder(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	vs := make([]bitutil.Vec, 32)
	for i := range vs {
		vs[i] = randVec(128, rng)
	}
	sink := 0
	avg := testing.AllocsPerRun(100, func() {
		for _, v := range vs {
			sink += e.Drive(v)
		}
	})
	if avg != 0 {
		t.Errorf("Drive allocates %.1f objects per 32-flit run, want 0", avg)
	}
	_ = sink
}

// TestDecodeRejectsWrongLineCount: an invert slice shorter than the
// segment count used to leave the trailing segments undecoded, a silently
// wrong flit. Decode must refuse it, and a longer slice, outright.
func TestDecodeRejectsWrongLineCount(t *testing.T) {
	encoded := bitutil.NewVec(64)
	for _, n := range []int{0, 7, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d invert lines for 8 segments: no panic", n)
				}
			}()
			Decode(encoded, make([]bool, n), 8)
		}()
	}
}

// fuzzSegBits are the segment widths FuzzBusInvertDrive draws from: every
// width dividing a 64-bit word, plus one spanning two words.
var fuzzSegBits = [...]int{1, 2, 4, 8, 16, 32, 64, 128}

// FuzzBusInvertDrive drives a fuzzed beat stream through a Coding of 1–3
// links carrying 1–4 images each, on a fuzzed geometry NewCoding accepts
// (at most 512 bits), and through one per-bit reference encoder per
// (link, image) bus. Each beat crosses a fuzzed link with fresh bits on
// every image; after every beat each image's transitions, and the wire
// state and invert lines of every bus, driven or not, must equal the
// references'.
func FuzzBusInvertDrive(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0), []byte{0xff, 0x0f, 0xf0, 0x0f, 0x00, 0x3c})
	f.Add(uint8(0), uint8(7), uint8(0), []byte{0x01, 0xfe, 0x55, 0xaa})
	f.Add(uint8(7), uint8(3), uint8(0), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(uint8(5), uint8(2), uint8(0), make([]byte, 64))
	f.Add(uint8(3), uint8(15), uint8(11), []byte{0x00, 0xff, 0x0f, 0xf0, 0x01, 0x3c, 0xaa, 0x55, 0x02, 0xc3})
	// Two beats of 3 images on 128-bit segments, every image driven.
	wide := make([]byte, 2*(1+3*16))
	for i := range wide {
		wide[i] = byte(i*37 + 11)
	}
	f.Add(uint8(7), uint8(0), uint8(7), wide)
	f.Fuzz(func(t *testing.T, geo, segs, shape uint8, data []byte) {
		segBits := fuzzSegBits[int(geo)%len(fuzzSegBits)]
		width := segBits * (1 + int(segs)%(512/segBits))
		links, images := 1+int(shape)%3, 1+int(shape)/3%4
		c, err := NewCoding(width, segBits, links, images)
		if err != nil {
			t.Fatalf("geometry %d/%d rejected: %v", width, segBits, err)
		}
		naive := make([]*naiveEncoder, links*images) // bus (link, v) at link·images + v
		for i := range naive {
			naive[i] = newNaiveEncoder(width, segBits)
		}
		words := (width + 63) / 64
		payload := make([]uint64, images*words)
		bt := make([]int64, images)
		for beat := 0; beat < 64 && len(data) > 0; beat++ {
			link := int(data[0]) % links
			data = data[1:]
			imgs := make([]bitutil.Vec, images)
			for v := range imgs {
				imgs[v] = bitutil.NewVec(width)
				for b := 0; b < width && len(data) > 0; b += 8 {
					imgs[v].SetField(b, min(8, width-b), uint64(data[0]))
					data = data[1:]
				}
				copy(payload[v*words:], imgs[v].Words())
			}
			clear(bt)
			c.Count(link, payload, bt)
			for v, img := range imgs {
				if _, _, want := naive[link*images+v].encode(img); bt[v] != int64(want) {
					t.Fatalf("%d/%d beat %d, link %d image %d: transitions %d, reference %d",
						width, segBits, beat, link, v, bt[v], want)
				}
			}
			for i, ref := range naive {
				wire := bitutil.FromWords(width, c.wire[i*words:(i+1)*words])
				if !wire.Equal(ref.wire) {
					t.Fatalf("%d/%d beat %d, bus %d: wire\n%s\nreference\n%s", width, segBits, beat, i, wire, ref.wire)
				}
				for b := 0; b < words*64; b++ {
					want := b < width && ref.invWire[b/segBits]
					if got := c.inv[i*words+b/64]>>uint(b%64)&1 != 0; got != want {
						t.Fatalf("%d/%d beat %d, bus %d: invert mask bit %d = %v, reference %v", width, segBits, beat, i, b, got, want)
					}
				}
			}
		}
	})
}
