package accel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// schedRecord runs one Infer and an InferRepeated of 3 on a serial engine
// and an InferBatch of every input on a pipelined one, all under
// GOMAXPROCS procs, and renders everything the runs produce: outputs as
// float32 bits, TotalBT, Cycles, LayerStats, EnergyCounters and
// TaskPackets of both engines.
func schedRecord(t *testing.T, cfg Config, m *dnn.Model, inputs []*tensor.Tensor, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var b bytes.Buffer
	outputs := func(outs ...*tensor.Tensor) {
		for _, out := range outs {
			for _, v := range out.Data {
				fmt.Fprintf(&b, " %08x", math.Float32bits(v))
			}
			b.WriteByte('\n')
		}
	}
	engines := func(engs ...*Engine) {
		for _, eng := range engs {
			fmt.Fprintf(&b, "bt %d cycles %d tasks %d energy %+v\n",
				eng.TotalBT(), eng.Cycles(), eng.TaskPackets(), eng.EnergyCounters())
			for _, st := range eng.LayerStats() {
				fmt.Fprintf(&b, "layer %+v\n", st)
			}
		}
	}
	ctx := context.Background()
	serial := mustNew(t, cfg, m)
	out, err := serial.Infer(ctx, inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	outputs(out)
	outs, err := serial.InferRepeated(ctx, inputs[1], 3)
	if err != nil {
		t.Fatal(err)
	}
	outputs(outs...)
	pcfg := cfg
	pcfg.LayerMode = PipelinedLayers
	pipelined := mustNew(t, pcfg, m)
	if outs, err = pipelined.InferBatch(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	outputs(outs...)
	engines(serial, pipelined)
	return b.Bytes()
}

// TestEncodeAheadSchedulingIndependent pins the encode-ahead contract:
// whichever goroutine encodes a segment, every packet is the same. Under
// GOMAXPROCS(1) the helper rarely runs and main encodes nearly every
// segment inline; under GOMAXPROCS(4) the helper encodes most of them.
// Outputs, BT, cycles, layer stats, energy counters and packet counts must
// agree bit for bit, for every ordering, index mode and lane format, on
// the serial, repeated and pipelined batch paths.
func TestEncodeAheadSchedulingIndependent(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(61)))
	inputs := batchInputs(m, 4, 62)
	for _, ord := range []struct {
		name   string
		id     flit.Ordering
		inBand bool
	}{
		{"O0", flit.Baseline, false},
		{"O1", flit.Affiliated, false},
		{"O2", flit.Separated, false},
		{"O2-inband", flit.Separated, true},
		{"hamming-nn", flit.HammingNN, false},
		{"popcount-asc", flit.PopcountAsc, false},
	} {
		for _, format := range []struct {
			name       string
			geom       flit.Geometry
			precisions []int
		}{
			{"fixed8", paperFixed8, nil},
			{"float32", paperFloat32, nil},
			{"mixed", paperFixed8, []int{8, 4, 16}},
		} {
			t.Run(ord.name+"/"+format.name, func(t *testing.T) {
				cfg := Mesh4x4MC2(format.geom)
				cfg.Ordering, cfg.InBandIndex = ord.id, ord.inBand
				cfg.Precisions = format.precisions
				one := schedRecord(t, cfg, m, inputs, 1)
				four := schedRecord(t, cfg, m, inputs, 4)
				if !bytes.Equal(one, four) {
					t.Fatalf("GOMAXPROCS 1 and 4 disagree:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
				}
			})
		}
	}
}

// shortColumn arms the short-column ordering: while set, it drops the last
// weight of every one-pair segment, an ordering bug FlitizeInto must
// catch. Unarmed it is O0, so the package's all-strategies tests pass it.
var shortColumn atomic.Bool

const shortColumnID flit.Ordering = 250

var registerShortColumn = sync.OnceValue(func() error {
	return flit.RegisterOrdering(flit.NewOrderingStrategy("short-column", shortColumnID, false, false,
		func(dst *flit.Ordered, w, in []bitutil.Word, _ int) {
			dst.Weights = append(dst.Weights[:0], w...)
			dst.Inputs = append(dst.Inputs[:0], in...)
			dst.PartnerIndex = nil
			if shortColumn.Load() && len(w) == 1 {
				dst.Weights = dst.Weights[:0]
			}
		}))
})

// waitGoroutines fails unless the goroutine count falls back to base: a
// joined helper has returned from its last call and exits at once, a
// leaked one stays parked.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the engine ran", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEncodeAheadHelperJoined: every Infer joins its helper before it
// returns — after success, after a mid-layer cancellation (which poisons
// the engine exactly as before) and after an encode error (which names
// the layer, task and segment exactly as before).
func TestEncodeAheadHelperJoined(t *testing.T) {
	if err := registerShortColumn(); err != nil {
		t.Fatal(err)
	}
	m := microNet(rand.New(rand.NewSource(1)))
	base := runtime.NumGoroutine()

	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if _, err := eng.Infer(context.Background(), testInput(m, 2)); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "after a successful Infer")

	ctx := &countdownCtx{Context: context.Background(), polls: 1}
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, base, "after a cancelled Infer")
	if eng.Reusable() || !errors.Is(eng.Aborted(), context.Canceled) {
		t.Errorf("after a mid-run cancel: Reusable=%v Aborted=%v", eng.Reusable(), eng.Aborted())
	}

	// Five-pair segments split the first conv layer's six-pair tasks into
	// five pairs and one; MC 1 sends task 1's one-pair tail first.
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = shortColumnID
	cfg.MaxSegmentPairs = 5
	eng = mustNew(t, cfg, m)
	shortColumn.Store(true)
	defer shortColumn.Store(false)
	_, err := eng.Infer(context.Background(), testInput(m, 2))
	want := regexp.MustCompile(`^accel: layer conv3x3\(1->4,s1,p1\): flitize task 1 seg 1: flit: ordering short-column returned 0 weights and 1 inputs for an 1-pair task$`)
	if err == nil || !want.MatchString(err.Error()) {
		t.Fatalf("encode error = %v, want a match for %s", err, want)
	}
	waitGoroutines(t, base, "after an encode error")
}
