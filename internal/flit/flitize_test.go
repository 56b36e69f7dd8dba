package flit

import (
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/quant"
)

func randTask(n int, rng *rand.Rand) Task {
	t := Task{
		Inputs:  make([]bitutil.Word, n),
		Weights: make([]bitutil.Word, n),
		Bias:    bitutil.Word(rng.Intn(256)),
	}
	for i := 0; i < n; i++ {
		t.Inputs[i] = bitutil.Word(rng.Intn(256))
		t.Weights[i] = bitutil.Word(rng.Intn(256))
	}
	return t
}

func taskDot(t Task) int32 {
	w := make([]int8, len(t.Weights))
	in := make([]int8, len(t.Inputs))
	for i := range w {
		w[i] = bitutil.WordFixed8(t.Weights[i])
		in[i] = bitutil.WordFixed8(t.Inputs[i])
	}
	return quant.DotQ(w, in)
}

func TestDataFlitCountFig2(t *testing.T) {
	// Paper Fig. 2: a LeNet conv1 task (25 inputs + 25 weights + 1 bias)
	// occupies 4 data flits at 8 pairs per flit.
	g := paperFixed8
	if got := g.DataFlitCount(25); got != 4 {
		t.Errorf("DataFlitCount(25) = %d, want 4", got)
	}
	if got := g.DataFlitCount(8); got != 2 {
		// 8 pairs fill one flit exactly; the bias needs a second.
		t.Errorf("DataFlitCount(8) = %d, want 2", got)
	}
	if got := g.DataFlitCount(7); got != 1 {
		t.Errorf("DataFlitCount(7) = %d, want 1", got)
	}
	if got := g.DataFlitCount(1); got != 1 {
		t.Errorf("DataFlitCount(1) = %d, want 1", got)
	}
}

func TestFlitizeBaselineLayout(t *testing.T) {
	g := paperFixed8
	task := Task{
		Inputs:  []bitutil.Word{0x11, 0x22, 0x33},
		Weights: []bitutil.Word{0xAA, 0xBB, 0xCC},
		Bias:    0x7F,
	}
	fz, err := Flitize(g, task, Options{Ordering: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if len(fz.Data) != 1 {
		t.Fatalf("data flits %d, want 1", len(fz.Data))
	}
	v := fz.Data[0]
	// Inputs in left half lanes 0..2.
	for i, want := range []uint64{0x11, 0x22, 0x33} {
		if got := v.Field(i*8, 8); got != want {
			t.Errorf("input lane %d = %#x, want %#x", i, got, want)
		}
	}
	// Weights in right half lanes 8..10.
	for i, want := range []uint64{0xAA, 0xBB, 0xCC} {
		if got := v.Field((8+i)*8, 8); got != want {
			t.Errorf("weight lane %d = %#x, want %#x", i, got, want)
		}
	}
	// Bias in the last lane (15).
	if got := v.Field(15*8, 8); got != 0x7F {
		t.Errorf("bias lane = %#x, want 0x7f", got)
	}
	// Untouched lanes zero.
	if got := v.Field(5*8, 8); got != 0 {
		t.Errorf("pad lane = %#x, want 0", got)
	}
}

func TestFlitizeErrors(t *testing.T) {
	g := paperFixed8
	if _, err := Flitize(g, Task{}, Options{}); err == nil {
		t.Error("empty task must error")
	}
	if _, err := Flitize(g, Task{Inputs: make([]bitutil.Word, 2), Weights: make([]bitutil.Word, 3)}, Options{}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := Flitize(Geometry{LinkBits: 100, Format: bitutil.Fixed8}, randTask(4, rand.New(rand.NewSource(1))), Options{}); err == nil {
		t.Error("bad geometry must error")
	}
	if _, err := Flitize(g, randTask(4, rand.New(rand.NewSource(1))), Options{Ordering: Ordering(9)}); err == nil {
		t.Error("unknown ordering must error")
	}
}

func TestFlitizeDeflitizeRoundTripAllOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []Geometry{paperFixed8, paperFloat32} {
		for _, ord := range Orderings() {
			for _, n := range []int{1, 2, 7, 8, 9, 25, 64, 150} {
				task := randTask(n, rng)
				want := taskDot(task)
				fz, err := Flitize(g, task, Options{Ordering: ord})
				if err != nil {
					t.Fatalf("%s %s n=%d: %v", g, ord, n, err)
				}
				got, err := Deflitize(g, fz.Data, n, ord, fz.PartnerIndex)
				if err != nil {
					t.Fatalf("%s %s n=%d deflitize: %v", g, ord, n, err)
				}
				if got.Bias != task.Bias {
					t.Errorf("%s %s n=%d: bias %#x, want %#x", g, ord, n, got.Bias, task.Bias)
				}
				// The pairing must be preserved: dot product invariant.
				if gotDot := taskDot(got); gotDot != want {
					t.Errorf("%s %s n=%d: dot %d, want %d", g, ord, n, gotDot, want)
				}
				// For O0 the exact order must round-trip.
				if ord == Baseline {
					for i := range task.Inputs {
						if got.Inputs[i] != task.Inputs[i] || got.Weights[i] != task.Weights[i] {
							t.Fatalf("baseline order not preserved at %d", i)
						}
					}
				}
			}
		}
	}
}

func TestFlitizeAffiliatedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := paperFixed8
	task := randTask(25, rng)
	fz, err := Flitize(g, task, Options{Ordering: Affiliated})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Deflitize(g, fz.Data, 25, Affiliated, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rank order must be descending by weight popcount.
	for i := 1; i < len(got.Weights); i++ {
		if got.Weights[i].OnesCount(8) > got.Weights[i-1].OnesCount(8) {
			t.Fatalf("weights not descending at rank %d", i)
		}
	}
}

func TestFlitizeSeparatedInBandIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := paperFixed8
	for _, n := range []int{2, 25, 150} {
		task := randTask(n, rng)
		fz, err := Flitize(g, task, Options{Ordering: Separated, InBandIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := g.IndexFlitCount(n); len(fz.Index) != want {
			t.Fatalf("n=%d: %d index flits, want %d", n, len(fz.Index), want)
		}
		partner, err := DecodePartnerIndex(g, fz.Index, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Deflitize(g, fz.Data, n, Separated, partner)
		if err != nil {
			t.Fatal(err)
		}
		if taskDot(got) != taskDot(task) {
			t.Errorf("n=%d: in-band index recovery broke pairing", n)
		}
	}
}

func TestPartnerIndexRoundTrip(t *testing.T) {
	g := paperFixed8
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 3, 16, 17, 100, 400} {
		partner := rng.Perm(n)
		vecs := EncodePartnerIndex(g, partner)
		got, err := DecodePartnerIndex(g, vecs, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d entries", n, len(got))
		}
		for i := range partner {
			if got[i] != partner[i] {
				t.Fatalf("n=%d: index %d = %d, want %d", n, i, got[i], partner[i])
			}
		}
	}
}

func TestDecodePartnerIndexWrongCount(t *testing.T) {
	g := paperFixed8
	if _, err := DecodePartnerIndex(g, nil, 40); err == nil {
		t.Error("missing index flits must error")
	}
}

// TestDecodePartnerIndexRejectsNonPositiveCount is the regression for the
// (nil, nil) escape: a malformed header pair count of zero or below used
// to decode into a nil partner table without error, deferring the failure
// to whatever indexed the table later (or corrupting results silently).
func TestDecodePartnerIndexRejectsNonPositiveCount(t *testing.T) {
	g := paperFixed8
	for _, n := range []int{0, -1, -40} {
		partner, err := DecodePartnerIndex(g, nil, n)
		if err == nil {
			t.Errorf("n=%d decoded into %v without error", n, partner)
		}
	}
	// n == 1 stays the valid degenerate case: one pair, no on-wire index.
	partner, err := DecodePartnerIndex(g, nil, 1)
	if err != nil || len(partner) != 1 || partner[0] != 0 {
		t.Errorf("n=1 = %v, %v; want the identity table", partner, err)
	}
}

func TestDeflitizeErrors(t *testing.T) {
	g := paperFixed8
	if _, err := Deflitize(g, nil, 0, Baseline, nil); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := Deflitize(g, nil, 5, Baseline, nil); err == nil {
		t.Error("wrong flit count must error")
	}
	fz, _ := Flitize(g, randTask(5, rand.New(rand.NewSource(1))), Options{Ordering: Separated})
	if _, err := Deflitize(g, fz.Data, 5, Separated, nil); err == nil {
		t.Error("missing partner table must error")
	}
	narrow := []bitutil.Vec{bitutil.NewVec(64)}
	if _, err := Deflitize(g, narrow, 5, Baseline, nil); err == nil || !strings.Contains(err.Error(), "64 bits wide") {
		t.Errorf("a data flit narrower than the link: err %v, want a width error", err)
	}
}

func TestIndexFlitCount(t *testing.T) {
	g := paperFixed8 // 128-bit link
	tests := []struct{ n, want int }{
		{1, 0},
		{2, 1},    // 1 bit × 2
		{25, 1},   // 5 bits × 25 = 125 ≤ 128
		{26, 2},   // 5-bit fields, 25 per flit → 2 flits
		{150, 10}, // 8-bit fields, 16 per flit → ceil(150/16)
	}
	for _, tt := range tests {
		if got := g.IndexFlitCount(tt.n); got != tt.want {
			t.Errorf("IndexFlitCount(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestPayloadsOrder(t *testing.T) {
	g := paperFixed8
	fz, err := Flitize(g, randTask(25, rand.New(rand.NewSource(2))), Options{Ordering: Separated, InBandIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	all := fz.Payloads()
	if len(all) != len(fz.Data)+len(fz.Index) {
		t.Fatalf("Payloads length %d", len(all))
	}
	if !all[0].Equal(fz.Data[0]) || !all[len(all)-1].Equal(fz.Index[len(fz.Index)-1]) {
		t.Error("Payloads order wrong")
	}
}

// TestOrderedFlitizationReducesPacketBT: within a single packet the ordered
// layouts should, on average over random tasks, produce fewer transitions
// across consecutive data flits than baseline.
func TestOrderedFlitizationReducesPacketBT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := paperFixed8
	streamBT := func(vecs []bitutil.Vec) int {
		total := 0
		for i := 1; i < len(vecs); i++ {
			total += vecs[i-1].Transitions(vecs[i])
		}
		return total
	}
	var base, aff, sep int
	const trials = 200
	for i := 0; i < trials; i++ {
		task := randTask(25, rng)
		b, _ := Flitize(g, task, Options{Ordering: Baseline})
		a, _ := Flitize(g, task, Options{Ordering: Affiliated})
		s, _ := Flitize(g, task, Options{Ordering: Separated})
		base += streamBT(b.Data)
		aff += streamBT(a.Data)
		sep += streamBT(s.Data)
	}
	if !(aff < base) {
		t.Errorf("affiliated packet BT %d not below baseline %d", aff, base)
	}
	if !(sep < aff) {
		t.Errorf("separated packet BT %d not below affiliated %d", sep, aff)
	}
}

// TestDeflitizeRejectsMalformedPartner: a separated-ordering partner table
// that is not a permutation of [0, n) must be an error. An out-of-range
// entry (in-band index fields are IndexBits(n) wide, so any n that is not a
// power of two can decode one) used to panic; a repeated entry returned a
// wrong pairing with err == nil.
func TestDeflitizeRejectsMalformedPartner(t *testing.T) {
	g := paperFixed8
	task := randTask(5, rand.New(rand.NewSource(9)))
	fz, err := Flitize(g, task, Options{Ordering: Separated})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		partner []int
		want    string
	}{
		{"duplicate entry", []int{0, 0, 1, 2, 3}, "repeated"},
		{"out of range", []int{0, 1, 2, 3, 7}, "outside [0,5)"},
	} {
		got, err := Deflitize(g, fz.Data, 5, Separated, tc.partner)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Deflitize(%v) = %v, %v; want error containing %q", tc.name, tc.partner, got, err, tc.want)
		}
	}
}
