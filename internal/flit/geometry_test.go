package flit

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/quant"
)

// Per-layer flit geometry: the parameterized construction surface, the
// lane-grid arithmetic at every fixed width, and the allocation guarantees
// of the pooled kernels across widths.

// paperFloat32 and paperFixed8 are the paper's two flit geometries: 16
// float-32 lanes on a 512-bit link and 16 fixed-8 lanes on a 128-bit link.
var (
	paperFloat32 = Geometry{LinkBits: 512, Format: bitutil.Float32}
	paperFixed8  = Geometry{LinkBits: 128, Format: bitutil.Fixed8}
)

func TestNewGeometryRejectionTable(t *testing.T) {
	cases := []struct {
		name     string
		linkBits int
		format   bitutil.Format
		wantErr  string
	}{
		{"unknown format", 128, bitutil.Format(0), "unknown"},
		{"unknown format 99", 128, bitutil.Format(99), "unknown"},
		{"zero link", 0, bitutil.Fixed8, "non-positive"},
		{"negative link", -128, bitutil.Fixed8, "non-positive"},
		{"link not lane multiple", 100, bitutil.Fixed8, "not a multiple"},
		{"odd lane count", 24, bitutil.Fixed8, "odd lane count"},
		{"too narrow for header", 32, bitutil.Fixed16, "header"},
	}
	for _, c := range cases {
		g, err := NewGeometry(c.linkBits, c.format)
		if err == nil {
			t.Errorf("%s: NewGeometry(%d, %v) = %v, want error", c.name, c.linkBits, c.format, g)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestNewGeometryAcceptsPaperPresets(t *testing.T) {
	g, err := NewGeometry(128, bitutil.Fixed8)
	if err != nil {
		t.Fatal(err)
	}
	if g != paperFixed8 {
		t.Errorf("NewGeometry(128, Fixed8) = %v, want 16 fixed-8 lanes on 128 bits", g)
	}
	g, err = NewGeometry(512, bitutil.Float32)
	if err != nil {
		t.Fatal(err)
	}
	if g != paperFloat32 {
		t.Errorf("NewGeometry(512, Float32) = %v, want 16 float-32 lanes on 512 bits", g)
	}
}

func TestFixedGeometryLaneGrid(t *testing.T) {
	// Same 128-bit physical link at every width: narrower lanes pack more
	// values per flit.
	cases := []struct {
		bits, lanes int
	}{
		{2, 64}, {4, 32}, {8, 16}, {16, 8},
	}
	for _, c := range cases {
		g, err := FixedGeometry(c.bits)
		if err != nil {
			t.Fatalf("FixedGeometry(%d): %v", c.bits, err)
		}
		if g.LinkBits != 128 {
			t.Errorf("FixedGeometry(%d).LinkBits = %d, want 128", c.bits, g.LinkBits)
		}
		if g.Lanes() != c.lanes {
			t.Errorf("FixedGeometry(%d).Lanes() = %d, want %d", c.bits, g.Lanes(), c.lanes)
		}
		if g.HalfLanes() != c.lanes/2 {
			t.Errorf("FixedGeometry(%d).HalfLanes() = %d", c.bits, g.HalfLanes())
		}
	}
	if _, err := FixedGeometry(7); err == nil {
		t.Error("FixedGeometry(7) did not fail")
	}
	if g, _ := FixedGeometry(8); g != paperFixed8 {
		t.Error("FixedGeometry(8) is not the paper's fixed-8 geometry")
	}
}

func TestWithFormatKeepsLink(t *testing.T) {
	g := paperFixed8.WithFormat(bitutil.Fixed4)
	if g.LinkBits != 128 || g.Format != bitutil.Fixed4 {
		t.Fatalf("WithFormat = %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Lanes() != 32 {
		t.Errorf("Lanes() = %d, want 32", g.Lanes())
	}
}

func TestLanesUnknownFormatIsZero(t *testing.T) {
	g := Geometry{LinkBits: 128, Format: bitutil.Format(99)}
	if got := g.Lanes(); got != 0 {
		t.Errorf("Lanes() = %d, want 0 for unknown format", got)
	}
}

func TestNarrowWidthsShipFewerFlits(t *testing.T) {
	// The headline invariant: the same 25-pair conv task needs
	// monotonically fewer data flits as lanes narrow.
	prev := 1 << 30
	for _, bits := range []int{16, 8, 4, 2} {
		g, err := FixedGeometry(bits)
		if err != nil {
			t.Fatal(err)
		}
		got := g.DataFlitCount(25)
		if got >= prev {
			t.Errorf("%d-bit DataFlitCount(25) = %d, not below wider width's %d", bits, got, prev)
		}
		prev = got
	}
	// Spot values: half = 64/2^k lanes ⇒ ceil(26/half).
	for _, c := range []struct{ bits, want int }{{2, 1}, {4, 2}, {8, 4}, {16, 7}} {
		g, _ := FixedGeometry(c.bits)
		if got := g.DataFlitCount(25); got != c.want {
			t.Errorf("%d-bit DataFlitCount(25) = %d, want %d", c.bits, got, c.want)
		}
	}
}

// widthTask builds a random task whose words fit the given lane width.
func widthTask(n, bits int, rng *rand.Rand) Task {
	mask := uint64(1)<<uint(bits) - 1
	t := Task{
		Inputs:  make([]bitutil.Word, n),
		Weights: make([]bitutil.Word, n),
		Bias:    bitutil.Word(rng.Uint64() & mask),
	}
	for i := 0; i < n; i++ {
		t.Inputs[i] = bitutil.Word(rng.Uint64() & mask)
		t.Weights[i] = bitutil.Word(rng.Uint64() & mask)
	}
	return t
}

// widthDot is the pairing invariant at a parameterized width: the exact
// integer dot product of the sign-extended lanes.
func widthDot(t Task, bits int) int64 {
	w := make([]int32, len(t.Weights))
	in := make([]int32, len(t.Inputs))
	for i := range w {
		w[i] = bitutil.WordFixed(t.Weights[i], bits)
		in[i] = bitutil.WordFixed(t.Inputs[i], bits)
	}
	return quant.DotQW(w, in)
}

func TestFlitizeDeflitizeRoundTripAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bits := range []int{2, 4, 8, 16} {
		g, err := FixedGeometry(bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range Orderings() {
			for _, n := range []int{1, 2, 7, 25, 64, 150} {
				task := widthTask(n, bits, rng)
				want := widthDot(task, bits)
				fz, err := Flitize(g, task, Options{Ordering: ord})
				if err != nil {
					t.Fatalf("%s %s n=%d: %v", g, ord, n, err)
				}
				if len(fz.Data) != g.DataFlitCount(n) {
					t.Fatalf("%s %s n=%d: %d data flits, want %d", g, ord, n, len(fz.Data), g.DataFlitCount(n))
				}
				got, err := Deflitize(g, fz.Data, n, ord, fz.PartnerIndex)
				if err != nil {
					t.Fatalf("%s %s n=%d deflitize: %v", g, ord, n, err)
				}
				if got.Bias != task.Bias {
					t.Errorf("%s %s n=%d: bias %#x, want %#x", g, ord, n, got.Bias, task.Bias)
				}
				if gotDot := widthDot(got, bits); gotDot != want {
					t.Errorf("%s %s n=%d: dot %d, want %d", g, ord, n, gotDot, want)
				}
			}
		}
	}
}

// benchFlitizeWidth measures the pooled flitize/deflitize round trip at one
// lane width: the per-packet hot path of a precision-scheduled layer.
// Baseline ordering keeps the measurement on the pooling/kernel path —
// sorting strategies add their own (bounded) scratch on top.
func benchFlitizeWidth(b *testing.B, bits int) {
	g, err := FixedGeometry(bits)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	task := widthTask(25, bits, rng)
	pool := NewPool(g.LinkBits)
	opt := Options{Ordering: Baseline}
	var fz Flitized
	var out Task
	// Warm the pool and the scratch so the steady state is measured.
	if err := FlitizeInto(g, task, opt, pool, &fz); err != nil {
		b.Fatal(err)
	}
	if err := DeflitizeInto(g, fz.Data, 25, Baseline, nil, &out); err != nil {
		b.Fatal(err)
	}
	for _, v := range fz.Data {
		pool.PutVec(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FlitizeInto(g, task, opt, pool, &fz); err != nil {
			b.Fatal(err)
		}
		if err := DeflitizeInto(g, fz.Data, 25, Baseline, nil, &out); err != nil {
			b.Fatal(err)
		}
		for _, v := range fz.Data {
			pool.PutVec(v)
		}
	}
}

func BenchmarkFlitizeRoundTrip2Bit(b *testing.B)  { benchFlitizeWidth(b, 2) }
func BenchmarkFlitizeRoundTrip4Bit(b *testing.B)  { benchFlitizeWidth(b, 4) }
func BenchmarkFlitizeRoundTrip8Bit(b *testing.B)  { benchFlitizeWidth(b, 8) }
func BenchmarkFlitizeRoundTrip16Bit(b *testing.B) { benchFlitizeWidth(b, 16) }

// TestAllocRegressionGuard re-runs the BenchmarkFlitizeRoundTrip* suite and
// fails if any width allocates at all: the pooled codec round-trips a task
// without touching the heap, so every budget is exactly 0 allocs/op, with
// no tolerance — the flit-level twin of the NoC-step guard in
// internal/noc, extended to the mixed-precision geometries so a
// narrow-lane kernel that starts allocating cannot land silently. Opt-in
// via BENCH_ALLOC_GUARD=1 (CI sets it).
func TestAllocRegressionGuard(t *testing.T) {
	if os.Getenv("BENCH_ALLOC_GUARD") == "" {
		t.Skip("set BENCH_ALLOC_GUARD=1 to run the allocation regression guard")
	}
	for name, fn := range map[string]func(*testing.B){
		"BenchmarkFlitizeRoundTrip2Bit":  BenchmarkFlitizeRoundTrip2Bit,
		"BenchmarkFlitizeRoundTrip4Bit":  BenchmarkFlitizeRoundTrip4Bit,
		"BenchmarkFlitizeRoundTrip8Bit":  BenchmarkFlitizeRoundTrip8Bit,
		"BenchmarkFlitizeRoundTrip16Bit": BenchmarkFlitizeRoundTrip16Bit,
	} {
		r := testing.Benchmark(fn)
		if got := r.AllocsPerOp(); got != 0 {
			t.Errorf("%s: %d allocs/op, budget 0 — pooling regression", name, got)
		} else {
			t.Logf("%s: 0 allocs/op, %d ns/op", name, r.NsPerOp())
		}
	}
}
