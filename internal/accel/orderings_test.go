package accel

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/tensor"
)

// TestCollectorRejectsEarlyMarkWithoutPartial: a segment marked early
// whose partial is not waiting is a broken collector state, reported as an
// error naming the result packet, never a panic.
func TestCollectorRejectsEarlyMarkWithoutPartial(t *testing.T) {
	eng, s, run := mkValidationScheduler(t, 1)
	// One task of two segments; the second is forged early with nothing
	// waiting, so adding the first must look for its partial.
	run.segStart = []int32{0, 2}
	run.state = make([]segState, 2)
	run.state[1] = segEarly
	s.results.add(1004, run, 0)
	err := deliverToMC(t, eng, s, resultPacket(eng, 1004, 0, 0, 1))
	if err == nil || !strings.Contains(err.Error(), "result packet 1004") ||
		!strings.Contains(err.Error(), "marked early, but no partial of it is waiting") {
		t.Fatalf("early mark without a waiting partial not rejected: %v", err)
	}
}

// orderingRun is what one engine measured: outputs as float32 bits, and
// the counters every ordering shares.
type orderingRun struct {
	out     []uint32
	cycles  int64
	packets int64
	energy  EnergyCounters
	layers  []LayerStat
}

func recordOrderingRun(t *testing.T, eng *Engine, inputs []*tensor.Tensor) orderingRun {
	t.Helper()
	outs, err := eng.InferBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	var r orderingRun
	for _, out := range outs {
		for _, v := range out.Data {
			r.out = append(r.out, math.Float32bits(v))
		}
	}
	r.cycles, r.packets, r.energy = eng.Cycles(), eng.TaskPackets()+eng.ResultPackets(), eng.EnergyCounters()
	r.energy.LinkTransitions = 0 // ordering 0's, compared row by row
	for _, st := range eng.LayerStats() {
		st.BT = 0 // ordering 0's mesh-wide delta
		r.layers = append(r.layers, st)
	}
	return r
}

// rowBT reads ordering o under coding k of eng, failing the test if the
// engine does not count that row.
func rowBT(t *testing.T, eng *Engine, o, k int) int64 {
	t.Helper()
	bt, err := eng.RowBT(o, k)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestCountOrderingsMatchesOrderingEngines is the equivalence contract of
// Count's orderings: one fixed-point engine carrying every registered
// ordering, with bus-invert and Gray counted beside plain links, reports
// each (ordering, coding) BT exactly as an engine of that ordering alone,
// and the outputs, cycles, packets, energy activity and layer records of
// each. Serial and pipelined batches, 8- and 4-bit lanes and out-of-band
// partner tables are covered.
func TestCountOrderingsMatchesOrderingEngines(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(71)))
	in := batchInputs(m, 2, 72)
	codings := []string{"businvert", "gray"}
	orderings := flit.Orderings()
	for _, tc := range []struct {
		name       string
		mode       LayerMode
		precisions []int
	}{
		{"serial", SerialLayers, nil},
		{"pipelined", PipelinedLayers, nil},
		{"fixed4", SerialLayers, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Mesh4x4MC2(paperFixed8)
			cfg.LayerMode, cfg.Precisions = tc.mode, tc.precisions
			type row struct {
				run orderingRun
				bt  []int64
			}
			alone := make([]row, len(orderings))
			for i, o := range orderings {
				c := cfg
				c.Ordering = o
				eng := mustNew(t, c, m)
				if err := eng.Count(nil, codings); err != nil {
					t.Fatal(err)
				}
				alone[i].run = recordOrderingRun(t, eng, in)
				for k := 0; k <= len(codings); k++ {
					alone[i].bt = append(alone[i].bt, rowBT(t, eng, 0, k))
				}
			}
			// The shared engine's own ordering is the last, so the
			// counted ones are declared out of registry order.
			own := len(orderings) - 1
			c := cfg
			c.Ordering = orderings[own]
			eng := mustNew(t, c, m)
			counted := slices.Delete(slices.Clone(orderings), own, own+1)
			if err := eng.Count(counted, codings); err != nil {
				t.Fatal(err)
			}
			shared := recordOrderingRun(t, eng, in)
			for v, o := range append([]flit.Ordering{orderings[own]}, counted...) {
				i := slices.Index(orderings, o)
				if !slices.Equal(shared.out, alone[i].run.out) || shared.cycles != alone[i].run.cycles ||
					shared.packets != alone[i].run.packets || shared.energy != alone[i].run.energy ||
					!slices.Equal(shared.layers, alone[i].run.layers) {
					t.Errorf("%s: shared engine's outputs or counters differ from its own engine's", o)
				}
				for k := range alone[i].bt {
					if got := rowBT(t, eng, v, k); got != alone[i].bt[k] {
						t.Errorf("%s coding %d: RowBT %d, its own engine's %d", o, k, got, alone[i].bt[k])
					}
				}
			}
			if rowBT(t, eng, 0, 0) != eng.TotalBT() {
				t.Error("ordering 0's coding 0 row is not the engine's TotalBT")
			}
		})
	}
}

// TestCountOrderingsRejects: Count refuses what one simulation cannot
// measure exactly — a float layer, in-band index flits — and a second
// declaration, a declaration once traffic has started or under a payload
// trace, with a descriptive error, and installs nothing from a refused
// call.
func TestCountOrderingsRejects(t *testing.T) {
	m := tinyNet(rand.New(rand.NewSource(73)))
	check := func(name string, eng *Engine, want string, orderings ...flit.Ordering) {
		t.Helper()
		if err := eng.Count(orderings, []string{"gray"}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Count = %v, want an error containing %q", name, err, want)
		}
		if len(eng.orderings) != 1 || eng.sim.PayloadBits() != eng.cfg.Mesh.LinkBits {
			t.Errorf("%s: a refused call installed %d orderings, %d-bit payloads", name, len(eng.orderings), eng.sim.PayloadBits())
		}
		if _, err := eng.RowBT(0, 1); err == nil {
			t.Errorf("%s: a refused call installed a second coding", name)
		}
	}
	check("float-32", mustNew(t, Mesh4x4MC2(paperFloat32), m), "NoC layer 0 is float-32", flit.Separated)

	cfg := Mesh4x4MC2(paperFixed8)
	cfg.InBandIndex = true
	check("in-band counted O2", mustNew(t, cfg, m), "ordering O2 ships its partner table in in-band index flits", flit.Separated)
	cfg.Ordering = flit.Separated
	check("in-band own O2", mustNew(t, cfg, m), "ordering O2 ships its partner table in in-band index flits", flit.Baseline)

	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	check("unknown", eng, "unknown ordering 240", flit.Ordering(240))
	if err := eng.Count(nil, []string{"huffman"}); err == nil || !strings.Contains(err.Error(), "unknown link coding") {
		t.Errorf("Count(huffman) = %v, want a descriptive error", err)
	}
	if _, err := eng.Infer(context.Background(), testInput(m, 1)); err != nil {
		t.Fatal(err)
	}
	check("after traffic", eng, "before any traffic", flit.Separated)

	traced := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if err := traced.SetTrace(func(int64, string, noc.LinkClass, *flit.Flit) {}); err != nil {
		t.Fatal(err)
	}
	check("traced", traced, "payload trace", flit.Separated)

	second := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if err := second.Count(nil, nil); err != nil {
		t.Fatal(err)
	}
	check("second", second, "declared once", flit.Separated)

	// An in-band platform whose orderings emit no partner table ships no
	// index flits, so it can count orderings.
	cfg = Mesh4x4MC2(paperFixed8)
	cfg.InBandIndex = true
	if err := mustNew(t, cfg, m).Count([]flit.Ordering{flit.Affiliated}, nil); err != nil {
		t.Errorf("in-band platform without partner tables: %v", err)
	}
}

// TestEngineRefusesTraceWithOrderings: a payload trace cannot replay a
// flit carrying several orderings' images, so the engine refuses one
// (TestCountOrderingsRejects covers the other order).
func TestEngineRefusesTraceWithOrderings(t *testing.T) {
	m := tinyNet(rand.New(rand.NewSource(74)))
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if err := eng.Count([]flit.Ordering{flit.Separated}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetTrace(func(int64, string, noc.LinkClass, *flit.Flit) {}); err == nil || !strings.Contains(err.Error(), "2 wire images") {
		t.Errorf("SetTrace on two orderings = %v, want a refusal", err)
	}
}

// pairShift arms the pair-shift ordering: while set, it rotates the
// weights one place against the inputs, an ordering that breaks pairing
// and so changes the partial sum. Unarmed it is O0, so the package's
// all-strategies tests pass it.
var pairShift atomic.Bool

const pairShiftID flit.Ordering = 249

var registerPairShift = sync.OnceValue(func() error {
	return flit.RegisterOrdering(flit.NewOrderingStrategy("pair-shift", pairShiftID, false, false,
		func(dst *flit.Ordered, w, in []bitutil.Word, _ int) {
			dst.Weights = append(dst.Weights[:0], w...)
			dst.Inputs = append(dst.Inputs[:0], in...)
			dst.PartnerIndex = nil
			if pairShift.Load() && len(w) > 1 {
				first := dst.Weights[0]
				copy(dst.Weights, dst.Weights[1:])
				dst.Weights[len(w)-1] = first
			}
		}))
})

// TestPERejectsDisagreeingOrderings: a PE decodes every ordering's image
// of a task packet, and partial sums that differ between two orderings
// fail the run with an error naming both.
func TestPERejectsDisagreeingOrderings(t *testing.T) {
	if err := registerPairShift(); err != nil {
		t.Fatal(err)
	}
	pairShift.Store(true)
	defer pairShift.Store(false)
	m := tinyNet(rand.New(rand.NewSource(75)))
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if err := eng.Count([]flit.Ordering{pairShiftID}, nil); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Infer(context.Background(), testInput(m, 2))
	if err == nil || !strings.Contains(err.Error(), "ordering pair-shift partial") ||
		!strings.Contains(err.Error(), "differs from ordering O0 partial") {
		t.Fatalf("disagreeing orderings not rejected: %v", err)
	}
}
