package flit

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
)

func TestRegistryBuiltins(t *testing.T) {
	want := map[string]struct {
		id           Ordering
		interleave   bool
		emitsPartner bool
	}{
		"O0":           {Baseline, false, false},
		"O1":           {Affiliated, true, false},
		"O2":           {Separated, true, true},
		"hamming-nn":   {HammingNN, true, false},
		"popcount-asc": {PopcountAsc, true, false},
	}
	for name, w := range want {
		s, ok := LookupOrderingStrategy(name)
		if !ok {
			t.Errorf("built-in %q not registered", name)
			continue
		}
		if s.ID() != w.id || s.Interleave() != w.interleave || s.EmitsPartner() != w.emitsPartner {
			t.Errorf("%s: id=%d interleave=%v partner=%v, want %d/%v/%v",
				name, int(s.ID()), s.Interleave(), s.EmitsPartner(), int(w.id), w.interleave, w.emitsPartner)
		}
		// Lookup is case-insensitive; display keeps the registered spelling.
		if s2, ok := LookupOrderingStrategy(strings.ToUpper(name)); !ok || s2.Name() != s.Name() {
			t.Errorf("%q case-insensitive lookup failed", name)
		}
		// ID round-trips through the header-side lookup and Stringer.
		if byID, ok := OrderingStrategyByID(w.id); !ok || byID.Name() != s.Name() {
			t.Errorf("ID %d does not resolve back to %q", int(w.id), name)
		}
		if w.id.String() != s.Name() {
			t.Errorf("Ordering(%d).String() = %q, want %q", int(w.id), w.id.String(), s.Name())
		}
	}
}

func TestRegisterOrderingRejectsConflicts(t *testing.T) {
	if err := RegisterOrdering(nil); err == nil {
		t.Error("nil strategy registered")
	}
	dupName := NewOrderingStrategy("o2", 200, false, false, nil)
	if err := RegisterOrdering(dupName); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate name (case-insensitive) not rejected: %v", err)
	}
	dupID := NewOrderingStrategy("fresh-name", Separated, false, false, nil)
	if err := RegisterOrdering(dupID); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate ID not rejected: %v", err)
	}
	wide := NewOrderingStrategy("too-wide", 256, false, false, nil)
	if err := RegisterOrdering(wide); err == nil || !strings.Contains(err.Error(), "8-bit") {
		t.Errorf("ID beyond the header field not rejected: %v", err)
	}
}

func TestParseOrdering(t *testing.T) {
	for name, want := range map[string]Ordering{
		"O0": Baseline, "o1": Affiliated, "O2": Separated,
		"HAMMING-NN": HammingNN, "popcount-asc": PopcountAsc,
	} {
		got, err := ParseOrdering(name)
		if err != nil || got != want {
			t.Errorf("ParseOrdering(%q) = %d, %v; want %d", name, int(got), err, int(want))
		}
	}
	if _, err := ParseOrdering("o9"); err == nil || !strings.Contains(err.Error(), "O2") {
		t.Errorf("unknown name error %v does not list registered names", err)
	}
}

// TestFlitizeHammingNNReducesStreamBT: over random tasks, the greedy
// Hamming nearest-neighbor order must yield fewer intra-packet transitions
// than baseline — the property Li et al. optimize for.
func TestFlitizeHammingNNReducesStreamBT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := paperFixed8
	streamBT := func(vecs []bitutil.Vec) int {
		total := 0
		for i := 1; i < len(vecs); i++ {
			total += vecs[i-1].Transitions(vecs[i])
		}
		return total
	}
	var base, nn int
	for i := 0; i < 200; i++ {
		task := randTask(25, rng)
		b, err := Flitize(g, task, Options{Ordering: Baseline})
		if err != nil {
			t.Fatal(err)
		}
		h, err := Flitize(g, task, Options{Ordering: HammingNN})
		if err != nil {
			t.Fatal(err)
		}
		base += streamBT(b.Data)
		nn += streamBT(h.Data)
	}
	if !(nn < base) {
		t.Errorf("hamming-nn packet BT %d not below baseline %d", nn, base)
	}
}

// TestFlitizeNewStrategiesRoundTrip: the related-work strategies must
// preserve pairing (dot-product invariance) through flitize/deflitize,
// exactly like the paper trio.
func TestFlitizeNewStrategiesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := paperFixed8
	for _, ord := range []Ordering{HammingNN, PopcountAsc} {
		for _, n := range []int{1, 2, 7, 25, 64} {
			task := randTask(n, rng)
			fz, err := Flitize(g, task, Options{Ordering: ord})
			if err != nil {
				t.Fatalf("%s n=%d: %v", ord, n, err)
			}
			if fz.PartnerIndex != nil {
				t.Fatalf("%s emitted a partner table; pairing is preserved by construction", ord)
			}
			got, err := Deflitize(g, fz.Data, n, ord, nil)
			if err != nil {
				t.Fatalf("%s n=%d deflitize: %v", ord, n, err)
			}
			if taskDot(got) != taskDot(task) || got.Bias != task.Bias {
				t.Errorf("%s n=%d: round trip broke pairing or bias", ord, n)
			}
		}
	}
}

// TestFlitizePopcountAscAscending pins the Han et al. sort sense.
func TestFlitizePopcountAscAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := paperFixed8
	task := randTask(25, rng)
	fz, err := Flitize(g, task, Options{Ordering: PopcountAsc})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Deflitize(g, fz.Data, 25, PopcountAsc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got.Weights); i++ {
		if got.Weights[i].OnesCount(8) < got.Weights[i-1].OnesCount(8) {
			t.Fatalf("weights not ascending at rank %d", i)
		}
	}
}

func TestLinkCodingRegistry(t *testing.T) {
	names := LinkCodingNames()
	if len(names) < 3 || names[0] != "none" {
		t.Fatalf("LinkCodingNames = %v, want none first plus gray and businvert", names)
	}
	for _, name := range []string{"", "none", "NONE"} {
		if s, ok := LookupLinkCoding(name); !ok || s != nil {
			t.Errorf("LookupLinkCoding(%q) = %v, %v; want the nil no-coding scheme", name, s, ok)
		}
	}
	if _, ok := LookupLinkCoding("huffman"); ok {
		t.Error("unknown coding resolved")
	}
	if err := RegisterLinkCoding(grayScheme{}); err == nil {
		t.Error("duplicate coding registration accepted")
	}

	bi, ok := LookupLinkCoding("businvert")
	if !ok || bi == nil {
		t.Fatal("businvert not registered")
	}
	if got := bi.ExtraLines(128); got != 128/BusinvertSegBits {
		t.Errorf("businvert ExtraLines(128) = %d, want %d", got, 128/BusinvertSegBits)
	}
	gr, _ := LookupLinkCoding("gray")
	if got := gr.ExtraLines(128); got != 0 {
		t.Errorf("gray ExtraLines = %d, want 0", got)
	}
}

// TestGrayEncodeSelfConsistent: the transform must be width-preserving,
// bijective (prefix-XOR decode) and match the bit-level definition.
func TestGrayEncodeSelfConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, width := range []int{16, 63, 64, 65, 128, 512} {
		v := bitutil.NewVec(width)
		for i := 0; i < width; i++ {
			v.SetBit(i, rng.Intn(2) == 1)
		}
		enc := GrayEncode(v)
		if enc.Width() != width {
			t.Fatalf("width %d: encoded width %d", width, enc.Width())
		}
		for i := 0; i < width; i++ {
			want := v.Bit(i)
			if i+1 < width {
				want = want != v.Bit(i+1)
			}
			if enc.Bit(i) != want {
				t.Fatalf("width %d: bit %d = %v, want %v", width, i, enc.Bit(i), want)
			}
		}
		// Prefix-XOR decode from the MSB recovers the original.
		dec := bitutil.NewVec(width)
		carry := false
		for i := width - 1; i >= 0; i-- {
			carry = carry != enc.Bit(i)
			dec.SetBit(i, carry)
		}
		if !dec.Equal(v) {
			t.Fatalf("width %d: gray transform not bijective", width)
		}
	}
}

// grayCoder returns a fresh gray coding of one width-bit link carrying
// one image.
func grayCoder(t *testing.T, width int) LinkCoding {
	t.Helper()
	gr, _ := LookupLinkCoding("gray")
	c, err := gr.NewCoding(width, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// countBeat drives payload across the one link of a one-image coding and
// returns the toggles it caused.
func countBeat(c LinkCoding, payload bitutil.Vec) int {
	var bt [1]int64
	c.Count(0, payload.Words(), bt[:])
	return int(bt[0])
}

// TestGrayCodingTransitions: the coding counts transitions between
// consecutive encoded patterns, starting from all-zero wires.
func TestGrayCodingTransitions(t *testing.T) {
	coder := grayCoder(t, 16)
	a := bitutil.NewVec(16)
	a.SetField(0, 16, 0b0000_0000_0000_0011)
	// enc(0b11) = 0b10 (bit i XORs bit i+1): one set bit → 1 transition
	// from the all-zero wire.
	if got := countBeat(coder, a); got != 1 {
		t.Errorf("first beat transitions = %d, want 1", got)
	}
	// Same payload again: encoded pattern unchanged → no transitions.
	if got := countBeat(coder, a); got != 0 {
		t.Errorf("repeat beat transitions = %d, want 0", got)
	}
}

// TestGrayEncodeIntoMatchesGrayEncode pins the scratch path to the exported
// allocating path: for random vectors of every width class, GrayEncodeInto
// into a reused (dirty) destination must produce exactly GrayEncode's bits.
func TestGrayEncodeIntoMatchesGrayEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, width := range []int{1, 16, 63, 64, 65, 128, 512} {
		scratch := bitutil.NewVec(width)
		for round := 0; round < 50; round++ {
			v := bitutil.NewVec(width)
			for i := 0; i < width; i++ {
				v.SetBit(i, rng.Intn(2) == 1)
			}
			want := GrayEncode(v)
			// Leave the previous round's bits in scratch: Into must fully
			// overwrite, not accumulate.
			GrayEncodeInto(v, scratch)
			if !scratch.Equal(want) {
				t.Fatalf("width %d round %d: GrayEncodeInto\n%s\nGrayEncode\n%s", width, round, scratch, want)
			}
		}
	}
}

// TestGrayEncodeIntoWidthMismatchPanics: the scratch path validates widths
// like every other two-vector bitutil operation.
func TestGrayEncodeIntoWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	GrayEncodeInto(bitutil.NewVec(16), bitutil.NewVec(32))
}

// TestGrayCodingMatchesEncodeReference drives one random stream through the
// registered scratch-based coder and an explicit GrayEncode reference and
// requires identical per-beat transition counts — the pin that lets the
// exported GrayEncode stay allocating while the hot path reuses scratch.
func TestGrayCodingMatchesEncodeReference(t *testing.T) {
	coder := grayCoder(t, 128)
	wire := bitutil.NewVec(128)
	rng := rand.New(rand.NewSource(22))
	for beat := 0; beat < 200; beat++ {
		v := bitutil.NewVec(128)
		v.SetField(0, 64, rng.Uint64())
		v.SetField(64, 64, rng.Uint64())
		enc := GrayEncode(v)
		want := wire.Transitions(enc)
		wire.CopyFrom(enc)
		if got := countBeat(coder, v); got != want {
			t.Fatalf("beat %d: coder transitions %d, GrayEncode reference %d", beat, got, want)
		}
	}
}

// TestGrayCodingAllocFree: after construction the coding must not allocate
// per beat (one Count call per flit per link on the hot path).
func TestGrayCodingAllocFree(t *testing.T) {
	coder := grayCoder(t, 128)
	rng := rand.New(rand.NewSource(23))
	vs := make([]bitutil.Vec, 16)
	for i := range vs {
		v := bitutil.NewVec(128)
		v.SetField(0, 64, rng.Uint64())
		v.SetField(64, 64, rng.Uint64())
		vs[i] = v
	}
	bt := make([]int64, 1)
	avg := testing.AllocsPerRun(100, func() {
		for _, v := range vs {
			coder.Count(0, v.Words(), bt)
		}
	})
	if avg != 0 {
		t.Errorf("gray Count allocates %.1f objects per 16-flit run, want 0", avg)
	}
}

// TestOrderReusesDirtyDestination: every built-in strategy orders into a
// caller-owned destination whatever it holds — backing arrays shorter or
// longer than the task, stale values, a stale partner table — with exactly
// the result it produces in a zero destination.
func TestOrderReusesDirtyDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	words := func(n int) []bitutil.Word {
		w := make([]bitutil.Word, n)
		for i := range w {
			w[i] = bitutil.Word(rng.Intn(256))
		}
		return w
	}
	for _, id := range []Ordering{Baseline, Affiliated, Separated, HammingNN, PopcountAsc} {
		s, _ := OrderingStrategyByID(id)
		for _, n := range []int{1, 7, 40} {
			weights, inputs := words(n), words(n)
			var want Ordered
			s.Order(&want, weights, inputs, 8)
			for _, stale := range []int{n / 2, n + 13} {
				// Dirty the scratch by ordering another task first, then
				// scribble over every visible field.
				var dst Ordered
				s.Order(&dst, words(stale), words(stale), 8)
				for i := range dst.Weights {
					dst.Weights[i], dst.Inputs[i] = 0xAA, 0x55
				}
				dst.PartnerIndex = append(dst.PartnerIndex[:0], make([]int, stale)...)
				for i := range dst.PartnerIndex {
					dst.PartnerIndex[i] = -1
				}
				s.Order(&dst, weights, inputs, 8)
				if !slices.Equal(dst.Weights, want.Weights) || !slices.Equal(dst.Inputs, want.Inputs) ||
					!slices.Equal(dst.PartnerIndex, want.PartnerIndex) || (dst.PartnerIndex == nil) != (want.PartnerIndex == nil) {
					t.Errorf("%s n=%d over a %d-entry destination: got %+v, want %+v", s.Name(), n, stale, dst, want)
				}
			}
		}
	}
}

// TestFlitizeKeepsLentPartnerTable: a partner table the caller takes out of
// a Flitized (as the engine does for out-of-band tables, lending a fresh
// one per packet) must survive the next FlitizeInto untouched, and a lent
// table with room for the task is filled in place.
func TestFlitizeKeepsLentPartnerTable(t *testing.T) {
	g := paperFixed8
	rng := rand.New(rand.NewSource(44))
	opt := Options{Ordering: Separated}
	var fz Flitized
	var kept [][]int
	var snapshots [][]int
	for pkt := 0; pkt < 6; pkt++ {
		lent := make([]int, 0, 64)
		fz.PartnerIndex = lent
		task := randTask(1+rng.Intn(40), rng)
		if err := FlitizeInto(g, task, opt, nil, &fz); err != nil {
			t.Fatal(err)
		}
		if &fz.PartnerIndex[:1][0] != &lent[:1][0] {
			t.Fatalf("packet %d: the lent table was not filled in place", pkt)
		}
		var back Task
		if err := DeflitizeInto(g, fz.Data, len(task.Weights), Separated, fz.PartnerIndex, &back); err != nil {
			t.Fatal(err)
		}
		if taskDot(back) != taskDot(task) {
			t.Fatalf("packet %d lost its pairing", pkt)
		}
		kept = append(kept, fz.PartnerIndex)
		snapshots = append(snapshots, slices.Clone(fz.PartnerIndex))
		fz.PartnerIndex = nil
	}
	for i := range kept {
		if !slices.Equal(kept[i], snapshots[i]) {
			t.Errorf("packet %d's partner table was overwritten by a later packet: %v, was %v", i, kept[i], snapshots[i])
		}
	}
}

// testCodings are the codings the coding contract tests cover: every
// registered coding, bus-invert on 128-bit segments (Count's whole-word
// path) and plainImageMajor, a custom scheme with a layout of its own.
func testCodings() map[string]LinkCodingScheme {
	out := map[string]LinkCodingScheme{"businvert128": businvertScheme{segBits: 128}, "plain-image-major": plainImageMajor{}}
	for _, name := range LinkCodingNames()[1:] {
		out[name], _ = LookupLinkCoding(name)
	}
	return out
}

// plainImageMajor is a test-only custom scheme: plain binary transitions,
// with its buses stored image-major, bus (link, v) at (v·links + link)·w.
// The coding contract is about counts, not layout.
type plainImageMajor struct{}

func (plainImageMajor) Name() string       { return "plain-image-major" }
func (plainImageMajor) ExtraLines(int) int { return 0 }
func (plainImageMajor) NewCoding(width, links, images int) (LinkCoding, error) {
	w := (width + 63) / 64
	return &imageMajorCoding{words: w, links: links, images: images, wire: make([]uint64, links*images*w)}, nil
}

type imageMajorCoding struct {
	words, links, images int
	wire                 []uint64
}

func (c *imageMajorCoding) Count(link int, payload []uint64, bt []int64) {
	for v := range c.images {
		wire := c.wire[(v*c.links+link)*c.words:][:c.words]
		for k, x := range payload[v*c.words:][:c.words] {
			bt[v] += int64(bits.OnesCount64(wire[k] ^ x))
			wire[k] = x
		}
	}
}

// randomImages returns images random width-bit vectors and the payload
// carrying them, image v in words [v·w, (v+1)·w).
func randomImages(rng *rand.Rand, width, images int) ([]bitutil.Vec, []uint64) {
	w := (width + 63) / 64
	imgs, payload := make([]bitutil.Vec, images), make([]uint64, images*w)
	for v := range imgs {
		imgs[v] = bitutil.FromWords(width, payload[v*w:(v+1)*w])
		for off := 0; off < width; off += 8 {
			imgs[v].SetField(off, min(8, width-off), rng.Uint64())
		}
	}
	return imgs, payload
}

// TestLinkCodingRowsMatchNew: each link of an n-link coding counts exactly
// what a one-link coding counts on the same beats, independently of the
// other links, which are driven with different payloads — for every
// coding of testCodings, at a narrow, a one-word and a multi-word width.
func TestLinkCodingRowsMatchNew(t *testing.T) {
	const n = 3
	for name, scheme := range testCodings() {
		for _, width := range []int{16, 64, 136} {
			if _, err := scheme.NewCoding(width, 1, 1); err != nil {
				continue // a width the coding rejects
			}
			row, err := scheme.NewCoding(width, n, 1)
			if err != nil {
				t.Fatalf("%s/%d: NewCoding(%d links) = %v", name, width, n, err)
			}
			refs := make([]LinkCoding, n)
			for i := range refs {
				if refs[i], err = scheme.NewCoding(width, 1, 1); err != nil {
					t.Fatalf("%s/%d: one-link NewCoding = %v", name, width, err)
				}
			}
			rng := rand.New(rand.NewSource(int64(width)))
			for b := range 50 {
				// Each link gets a payload of its own, so a word shared
				// between them would show.
				for i := range refs {
					imgs, payload := randomImages(rng, width, 1)
					var got [1]int64
					row.Count(i, payload, got[:])
					if want := countBeat(refs[i], imgs[0]); got[0] != int64(want) {
						t.Fatalf("%s/%d: link %d beat %d counts %d, a one-link coding's %d", name, width, i, b, got[0], want)
					}
				}
			}
		}
	}
}

// TestCodingImagesMatchSingleImage: on every link, a k-image coding counts
// for image v exactly what a one-image coding counts when fed image v
// alone, and adds each image's toggles to its own entry of bt — for every
// coding of testCodings, 1–5 images, on 64-, 128- and 512-bit links.
func TestCodingImagesMatchSingleImage(t *testing.T) {
	const links = 3
	for name, scheme := range testCodings() {
		for _, width := range []int{64, 128, 512} {
			if _, err := scheme.NewCoding(width, 1, 1); err != nil {
				continue // a width the coding rejects
			}
			for images := 1; images <= 5; images++ {
				multi, err := scheme.NewCoding(width, links, images)
				if err != nil {
					t.Fatalf("%s/%d: NewCoding(%d links, %d images) = %v", name, width, links, images, err)
				}
				refs := make([]LinkCoding, images)
				for v := range refs {
					if refs[v], err = scheme.NewCoding(width, links, 1); err != nil {
						t.Fatalf("%s/%d: one-image NewCoding = %v", name, width, err)
					}
				}
				rng := rand.New(rand.NewSource(int64(width*10 + images)))
				got, want := make([]int64, images), make([]int64, images)
				for b := range 60 {
					link := rng.Intn(links)
					imgs, payload := randomImages(rng, width, images)
					multi.Count(link, payload, got)
					for v, img := range imgs {
						refs[v].Count(link, img.Words(), want[v:v+1])
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%d, %d images, beat %d on link %d: counted %v, one-image codings %v",
							name, width, images, b, link, got, want)
					}
				}
				if images > 1 && slices.Equal(got[:1], got[1:2]) {
					t.Errorf("%s/%d: images 0 and 1 count the same: the beats are too few to tell them apart", name, width)
				}
			}
		}
	}
}
