package nocbt

import (
	"context"
	"strings"
	"testing"
)

// The mixed-precision acceptance scenarios: narrower lanes ship measurably
// fewer flits on the same model, inference stays bit-identical across
// orderings and codings at any fixed width, and every malformed schedule is
// rejected with a descriptive error before a simulation starts.

func TestWithPrecisionsValidation(t *testing.T) {
	// Unsupported width: caught at platform construction.
	if _, err := NewPlatform(WithPrecisions(7)); err == nil ||
		!strings.Contains(err.Error(), "unsupported fixed-point width 7") {
		t.Errorf("WithPrecisions(7) error = %v, want unsupported-width", err)
	}
	// Precision schedules need a fixed-point geometry.
	if _, err := NewPlatform(WithGeometry(Float32()), WithPrecisions(8)); err == nil ||
		!strings.Contains(err.Error(), "fixed-point") {
		t.Errorf("float32 + precisions error = %v, want fixed-point-geometry", err)
	}
	// Schedule length is validated against the model at engine construction
	// (the platform alone does not know the model): LeNet has 5 NoC layers.
	p, err := NewPlatform(WithPrecisions(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(p, LeNet(1)); err == nil ||
		!strings.Contains(err.Error(), "5 NoC layers") {
		t.Errorf("2-entry schedule on LeNet error = %v, want layer-count mismatch", err)
	}
	// A single entry broadcasts; a full 5-entry schedule is accepted.
	for _, sched := range [][]int{{4}, {8, 8, 4, 4, 16}} {
		p, err := NewPlatform(WithPrecisions(sched...))
		if err != nil {
			t.Fatalf("WithPrecisions(%v): %v", sched, err)
		}
		if _, err := NewEngine(p, LeNet(1)); err != nil {
			t.Errorf("NewEngine with schedule %v: %v", sched, err)
		}
	}
}

func TestPrecisionInFingerprint(t *testing.T) {
	base := MustPlatform()
	narrow := MustPlatform(WithPrecisions(4))
	fpBase, err := PlatformFingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	fpNarrow, err := PlatformFingerprint(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if fpBase == fpNarrow {
		t.Error("4-bit schedule does not change the platform fingerprint")
	}
	// The empty schedule must fingerprint identically to the pre-precision
	// encoding (omitempty keeps the canonical JSON unchanged).
	fpEmpty, err := PlatformFingerprint(MustPlatform(WithPrecisions()))
	if err != nil {
		t.Fatal(err)
	}
	if fpEmpty != fpBase {
		t.Error("empty precision schedule changed the fingerprint")
	}
}

// TestPrecisionFewerFlitsSameAnswers is the headline end to end: the same
// LeNet inference at 4-bit ships measurably fewer flits (and link BT) than
// at 8-bit, and at each width the outputs are bit-identical across
// orderings and codings — ordering and coding only permute/recode the wire
// traffic of an exact integer datapath.
func TestPrecisionFewerFlitsSameAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs NoC inferences; skipped in -short mode")
	}
	model := LeNet(1)
	input := SampleInput(model, 3)

	run := func(bits int, ord Ordering, coding string) (*Tensor, *Engine) {
		t.Helper()
		p, err := NewPlatform(WithPrecisions(bits), WithOrdering(ord), WithLinkCoding(coding))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, model.CloneForInference())
		if err != nil {
			t.Fatal(err)
		}
		out, err := eng.Infer(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		return out, eng
	}

	out8, eng8 := run(8, O0, "none")
	out4, eng4 := run(4, O0, "none")

	if f4, f8 := eng4.TotalFlits(), eng8.TotalFlits(); f4 >= f8 {
		t.Errorf("4-bit flits = %d, not below 8-bit flits = %d", f4, f8)
	} else if ratio := float64(f4) / float64(f8); ratio > 0.85 {
		// "Measurably" fewer: headers and per-packet overheads mean the
		// ratio is above the ideal 0.5, but it must be well below 1.
		t.Errorf("4-bit/8-bit flit ratio = %.3f, want a measurable reduction", ratio)
	}
	ec4, ec8 := eng4.EnergyCounters(), eng8.EnergyCounters()
	if ec4.MACBitOps >= ec8.MACBitOps {
		t.Errorf("4-bit MACBitOps = %d, not below 8-bit %d", ec4.MACBitOps, ec8.MACBitOps)
	}
	if ec4.FlitBits >= ec8.FlitBits {
		t.Errorf("4-bit FlitBits = %d, not below 8-bit %d", ec4.FlitBits, ec8.FlitBits)
	}

	// Different quantization widths legitimately produce different floats;
	// ordering/coding at a fixed width must not.
	for _, tc := range []struct {
		ord    Ordering
		coding string
	}{{O1, "none"}, {O2, "none"}, {O0, "gray"}, {O2, "businvert"}} {
		got, _ := run(4, tc.ord, tc.coding)
		for i := range out4.Data {
			if got.Data[i] != out4.Data[i] {
				t.Fatalf("4-bit %v/%s output[%d] = %v, O0/none = %v",
					tc.ord, tc.coding, i, got.Data[i], out4.Data[i])
			}
		}
		got8, _ := run(8, tc.ord, tc.coding)
		for i := range out8.Data {
			if got8.Data[i] != out8.Data[i] {
				t.Fatalf("8-bit %v/%s output[%d] = %v, O0/none = %v",
					tc.ord, tc.coding, i, got8.Data[i], out8.Data[i])
			}
		}
	}

	// A mixed per-layer schedule runs end to end and lands between the
	// uniform extremes on traffic.
	pMixed, err := NewPlatform(WithPrecisions(8, 4, 4, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	engMixed, err := NewEngine(pMixed, model.CloneForInference())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engMixed.Infer(context.Background(), input); err != nil {
		t.Fatal(err)
	}
	if fm := engMixed.TotalFlits(); fm <= eng4.TotalFlits() || fm >= eng8.TotalFlits() {
		t.Errorf("mixed-schedule flits = %d, want strictly between 4-bit %d and 8-bit %d",
			fm, eng4.TotalFlits(), eng8.TotalFlits())
	}
}

// TestPrecisionSweepPinsPerWidthBT pins the precision axis end to end: the
// flits and total BT of one untrained LeNet inference (seed 1, default
// platform, fixed-8 geometry, O0, uncoded) at each fixed lane width.
// Narrower lanes pack more values per flit, so both fall with the width.
func TestPrecisionSweepPinsPerWidthBT(t *testing.T) {
	if testing.Short() {
		t.Skip("runs NoC inferences; skipped in -short mode")
	}
	rows, err := RunSweep(context.Background(), SweepSpec{
		Platforms:  []NamedPlatform{DefaultPlatform()},
		Geometries: []Geometry{Fixed8()},
		Orderings:  []Ordering{O0},
		Codings:    []string{"none"},
		Models:     []SweepModel{LeNetModel},
		Seeds:      []int64{1},
		Precisions: FixedWidths(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]struct{ flits, bt int64 }{
		2:  {50_240, 5_331_974},
		4:  {64_870, 9_634_377},
		8:  {92_400, 15_530_101},
		16: {144_282, 27_913_966},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want one per width in %v", len(rows), FixedWidths())
	}
	for _, r := range rows {
		w, ok := want[r.Precision]
		if !ok {
			t.Errorf("unexpected width %d", r.Precision)
			continue
		}
		if r.Flits != w.flits || r.TotalBT != w.bt {
			t.Errorf("width %d: flits %d, BT %d; want flits %d, BT %d",
				r.Precision, r.Flits, r.TotalBT, w.flits, w.bt)
		}
	}
}
