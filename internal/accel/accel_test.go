package accel

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// paperFloat32 and paperFixed8 are the paper's two flit geometries: 16
// float-32 lanes on a 512-bit link and 16 fixed-8 lanes on a 128-bit link.
var (
	paperFloat32 = flit.Geometry{LinkBits: 512, Format: bitutil.Float32}
	paperFixed8  = flit.Geometry{LinkBits: 128, Format: bitutil.Fixed8}
)

// mustNew builds an engine, failing t on a construction error.
func mustNew(t testing.TB, cfg Config, m *dnn.Model) *Engine {
	t.Helper()
	eng, err := New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPerimeterMCsPlacement(t *testing.T) {
	// 4×4 with 2 MCs: clockwise walk starts at (0,0); the second MC lands
	// half way around the 12-node perimeter at (3,3).
	got := PerimeterMCs(4, 4, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 15 {
		t.Errorf("4x4 MC2 = %v, want [0 15]", got)
	}
	got4 := PerimeterMCs(8, 8, 4)
	if len(got4) != 4 {
		t.Fatalf("8x8 MC4 = %v", got4)
	}
	got8 := PerimeterMCs(8, 8, 8)
	if len(got8) != 8 {
		t.Fatalf("8x8 MC8 = %v", got8)
	}
	// All distinct and on the perimeter.
	for _, set := range [][]int{got, got4, got8} {
		seen := map[int]bool{}
		for _, n := range set {
			if seen[n] {
				t.Errorf("duplicate MC %d in %v", n, set)
			}
			seen[n] = true
			x, y := n%8, n/8
			if len(set) != 2 && x != 0 && x != 7 && y != 0 && y != 7 {
				t.Errorf("MC %d at (%d,%d) not on 8x8 perimeter", n, x, y)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	g := paperFixed8
	good := Mesh4x4MC2(g).withDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("preset invalid: %v", err)
	}
	bad := good
	bad.MCs = nil
	if err := bad.Validate(); err == nil {
		t.Error("no MCs accepted")
	}
	bad = good
	bad.MCs = []int{99}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range MC accepted")
	}
	bad = good
	bad.MCs = []int{1, 1}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate MC accepted")
	}
	bad = good
	bad.Mesh.LinkBits = 64
	if err := bad.Validate(); err == nil {
		t.Error("mismatched link width accepted")
	}
}

func TestPEsExcludeMCs(t *testing.T) {
	cfg := Mesh4x4MC2(paperFixed8)
	pes := cfg.PEs()
	if len(pes) != 14 {
		t.Fatalf("PE count %d, want 14", len(pes))
	}
	for _, pe := range pes {
		for _, mc := range cfg.MCs {
			if pe == mc {
				t.Errorf("node %d is both PE and MC", pe)
			}
		}
	}
}

// tinyNet is a small but representative model: conv + relu + pool + fc.
func tinyNet(rng *rand.Rand) *dnn.Model {
	return &dnn.Model{
		ModelName: "tiny",
		InShape:   []int{1, 8, 8},
		Layers: []dnn.Layer{
			dnn.NewConv2D(1, 3, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewFlatten(),
			dnn.NewLinear(3*4*4, 5, rng),
		},
	}
}

func testInput(m *dnn.Model, seed int64) *tensor.Tensor {
	x := tensor.New(m.InShape...)
	x.Uniform(0, 1, rand.New(rand.NewSource(seed)))
	return x
}

func TestInferMatchesDirectFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tinyNet(rng)
	x := testInput(m, 2)
	want := m.Forward(x)

	eng := mustNew(t, Mesh4x4MC2(paperFloat32), m)
	got, err := eng.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() {
		t.Fatalf("output size %d, want %d", got.Size(), want.Size())
	}
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Errorf("output[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	if eng.TotalBT() == 0 {
		t.Error("no bit transitions recorded")
	}
	if eng.TaskPackets() == 0 || eng.ResultPackets() == 0 {
		t.Error("no traffic recorded")
	}
}

func TestInferFixed8CloseToDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tinyNet(rng)
	x := testInput(m, 4)
	want := m.Forward(x)

	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	got, err := eng.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	// Quantization noise accumulates per layer; outputs must correlate
	// strongly with the float reference even if not equal.
	var num, denA, denB float64
	for i := range want.Data {
		num += float64(got.Data[i]) * float64(want.Data[i])
		denA += float64(got.Data[i]) * float64(got.Data[i])
		denB += float64(want.Data[i]) * float64(want.Data[i])
	}
	if denA == 0 || denB == 0 {
		t.Fatal("degenerate outputs")
	}
	corr := num / math.Sqrt(denA*denB)
	if corr < 0.98 {
		t.Errorf("fixed8 output correlation %.4f with float reference; want ≥ 0.98", corr)
	}
}

// TestOrderingsProduceIdenticalFixed8Outputs is the core integration test of
// the paper's §IV-C: ordering is transparent to the computation. In fixed-8
// mode the integer accumulation makes results bit-identical across O0/O1/O2.
func TestOrderingsProduceIdenticalFixed8Outputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tinyNet(rng)
	x := testInput(m, 6)

	var outputs []*tensor.Tensor
	for _, ord := range flit.Orderings() {
		cfg := Mesh4x4MC2(paperFixed8)
		cfg.Ordering = ord
		eng := mustNew(t, cfg, m)
		out, err := eng.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("%s: %v", ord, err)
		}
		outputs = append(outputs, out)
	}
	for i := 1; i < len(outputs); i++ {
		for j := range outputs[0].Data {
			if outputs[i].Data[j] != outputs[0].Data[j] {
				t.Fatalf("ordering %s output[%d] = %v, O0 = %v (order invariance broken)",
					flit.Orderings()[i], j, outputs[i].Data[j], outputs[0].Data[j])
			}
		}
	}
}

func TestOrderingsProduceCloseFloat32Outputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := tinyNet(rng)
	x := testInput(m, 8)

	var outputs []*tensor.Tensor
	for _, ord := range flit.Orderings() {
		cfg := Mesh4x4MC2(paperFloat32)
		cfg.Ordering = ord
		eng := mustNew(t, cfg, m)
		out, err := eng.Infer(context.Background(), x)
		if err != nil {
			t.Fatalf("%s: %v", ord, err)
		}
		outputs = append(outputs, out)
	}
	// Float addition order differs between orderings, so equality is up to
	// rounding tolerance only.
	for i := 1; i < len(outputs); i++ {
		for j := range outputs[0].Data {
			if math.Abs(float64(outputs[i].Data[j]-outputs[0].Data[j])) > 1e-3 {
				t.Errorf("ordering %s output[%d] = %v vs O0 %v",
					flit.Orderings()[i], j, outputs[i].Data[j], outputs[0].Data[j])
			}
		}
	}
}

// TestOrderingReducesBT checks the headline effect on a real workload:
// O1 and O2 must cut total NoC bit transitions relative to O0, and O2 must
// beat O1 (Fig. 12's consistent trend).
func TestOrderingReducesBT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := tinyNet(rng)
	x := testInput(m, 10)

	bts := map[flit.Ordering]int64{}
	for _, ord := range flit.Orderings() {
		cfg := Mesh4x4MC2(paperFixed8)
		cfg.Ordering = ord
		eng := mustNew(t, cfg, m)
		if _, err := eng.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		bts[ord] = eng.TotalBT()
	}
	if !(bts[flit.Affiliated] < bts[flit.Baseline]) {
		t.Errorf("O1 BT %d not below O0 %d", bts[flit.Affiliated], bts[flit.Baseline])
	}
	if !(bts[flit.Separated] < bts[flit.Affiliated]) {
		t.Errorf("O2 BT %d not below O1 %d", bts[flit.Separated], bts[flit.Affiliated])
	}
}

func TestSegmentedLinearLayer(t *testing.T) {
	// A linear layer bigger than MaxSegmentPairs must split into segments
	// and still produce correct results.
	rng := rand.New(rand.NewSource(11))
	m := &dnn.Model{
		ModelName: "wide",
		InShape:   []int{1, 4, 4},
		Layers: []dnn.Layer{
			dnn.NewFlatten(),
			dnn.NewLinear(16, 3, rng),
		},
	}
	x := testInput(m, 12)
	want := m.Forward(x)

	cfg := Mesh4x4MC2(paperFloat32)
	cfg.MaxSegmentPairs = 5 // force 4 segments for 16 pairs
	eng := mustNew(t, cfg, m)
	got, err := eng.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Errorf("segmented output[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// 3 tasks × 4 segments = 12 task packets.
	if eng.TaskPackets() != 12 {
		t.Errorf("task packets %d, want 12", eng.TaskPackets())
	}
}

// TestHeaderCountLimits: the 16-bit PairCount header field carries a task
// packet's pair count and a result packet's segment index, so segment sizes
// and segment counts that would overflow it are errors naming the field —
// not a PE-side contradiction thousands of cycles into the run.
func TestHeaderCountLimits(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in       int // Linear fan-in: the task's pair count
		segPairs int
		newErr   string // error from New, or "" when New must succeed
		inferErr string // error from Infer when New succeeds
		wantPkts int64  // task packets when Infer succeeds
	}{
		{name: "segment over the pair count", in: 70000, segPairs: 70000, newErr: "16-bit PairCount"},
		{name: "largest segment", in: 70000, segPairs: flit.MaxHeaderCount, wantPkts: 2},
		{name: "too many segments", in: flit.MaxHeaderCount + 2, segPairs: 1, inferErr: "16-bit PairCount"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &dnn.Model{
				ModelName: "wide",
				InShape:   []int{1, 1, tc.in},
				Layers:    []dnn.Layer{dnn.NewFlatten(), dnn.NewLinear(tc.in, 1, rand.New(rand.NewSource(1)))},
			}
			cfg := Mesh4x4MC2(paperFixed8)
			cfg.MaxSegmentPairs = tc.segPairs
			eng, err := New(cfg, m)
			if tc.newErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.newErr) {
					t.Fatalf("New: err %v, want one containing %q", err, tc.newErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng.Infer(context.Background(), testInput(m, 1))
			if tc.inferErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.inferErr) {
					t.Fatalf("Infer: err %v, want one containing %q", err, tc.inferErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.TaskPackets(); got != tc.wantPkts {
				t.Errorf("task packets %d, want %d", got, tc.wantPkts)
			}
		})
	}
}

func TestInBandIndexStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := tinyNet(rng)
	x := testInput(m, 14)

	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = flit.Separated
	cfg.InBandIndex = true
	eng := mustNew(t, cfg, m)
	got, err := eng.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}

	ref := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	want, err := ref.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Errorf("in-band index output[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// In-band indexing must cost strictly more flits than out-of-band.
	if eng.TotalBT() <= ref.TotalBT() {
		t.Logf("in-band BT %d vs out-of-band O0 BT %d", eng.TotalBT(), ref.TotalBT())
	}
}

func TestLayerStatsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := tinyNet(rng)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if _, err := eng.Infer(context.Background(), testInput(m, 16)); err != nil {
		t.Fatal(err)
	}
	stats := eng.LayerStats()
	if len(stats) != len(m.Layers) {
		t.Fatalf("layer stats %d, want %d", len(stats), len(m.Layers))
	}
	nocLayers := 0
	for _, ls := range stats {
		if ls.OverNoC {
			nocLayers++
			if ls.BT <= 0 || ls.Flits <= 0 || ls.Tasks <= 0 {
				t.Errorf("NoC layer %s has empty stats: %+v", ls.Name, ls)
			}
		}
	}
	if nocLayers != 2 { // conv + linear
		t.Errorf("NoC layers %d, want 2", nocLayers)
	}
}

func TestMultipleInfersAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := tinyNet(rng)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if _, err := eng.Infer(context.Background(), testInput(m, 18)); err != nil {
		t.Fatal(err)
	}
	bt1 := eng.TotalBT()
	if _, err := eng.Infer(context.Background(), testInput(m, 19)); err != nil {
		t.Fatal(err)
	}
	if bt2 := eng.TotalBT(); bt2 <= bt1 {
		t.Errorf("second inference did not add BT: %d -> %d", bt1, bt2)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Mesh4x4MC2(paperFixed8), nil); err == nil {
		t.Error("nil model accepted")
	}
	bad := Mesh4x4MC2(paperFixed8)
	bad.MCs = []int{999}
	if _, err := New(bad, tinyNet(rand.New(rand.NewSource(1)))); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestHigherMCCountFewerCyclesPerTask(t *testing.T) {
	// More MCs inject in parallel: same workload should finish in fewer
	// cycles on an 8×8 MC8 than an 8×8 MC4 platform.
	rng := rand.New(rand.NewSource(21))
	m := tinyNet(rng)
	x := testInput(m, 22)

	run := func(cfg Config) int64 {
		eng := mustNew(t, cfg, m)
		if _, err := eng.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		return eng.Cycles()
	}
	c4 := run(Mesh8x8MC4(paperFixed8))
	c8 := run(Mesh8x8MC8(paperFixed8))
	if c8 >= c4 {
		t.Errorf("MC8 cycles %d not below MC4 cycles %d", c8, c4)
	}
}
