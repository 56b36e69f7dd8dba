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
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// schedRecord runs one Infer and an InferBatch of three copies of one
// input on a serial engine and an InferBatch of every input on a pipelined
// one, all under GOMAXPROCS procs, and renders everything the runs
// produce: outputs as float32 bits, each call's LayerStats and
// LastBatchStats, and TotalBT, Cycles, EnergyCounters and TaskPackets of
// both engines.
func schedRecord(t *testing.T, cfg Config, m *dnn.Model, inputs []*tensor.Tensor, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var b bytes.Buffer
	// record renders one call's outputs and the engine's per-call records.
	record := func(eng *Engine, outs ...*tensor.Tensor) {
		for _, out := range outs {
			for _, v := range out.Data {
				fmt.Fprintf(&b, " %08x", math.Float32bits(v))
			}
			b.WriteByte('\n')
		}
		for _, st := range eng.LayerStats() {
			fmt.Fprintf(&b, "layer %+v\n", st)
		}
		fmt.Fprintf(&b, "batch %+v\n", eng.LastBatchStats())
	}
	ctx := context.Background()
	serial := mustNew(t, cfg, m)
	out, err := serial.Infer(ctx, inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	record(serial, out)
	outs, err := serial.InferBatch(ctx, []*tensor.Tensor{inputs[1], inputs[1], inputs[1]})
	if err != nil {
		t.Fatal(err)
	}
	record(serial, outs...)
	pcfg := cfg
	pcfg.LayerMode = PipelinedLayers
	pipelined := mustNew(t, pcfg, m)
	if outs, err = pipelined.InferBatch(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	record(pipelined, outs...)
	for _, eng := range []*Engine{serial, pipelined} {
		fmt.Fprintf(&b, "bt %d cycles %d tasks %d energy %+v\n",
			eng.TotalBT(), eng.Cycles(), eng.TaskPackets(), eng.EnergyCounters())
	}
	return b.Bytes()
}

// TestEncodeAheadSchedulingIndependent pins the encode-ahead contract:
// whichever goroutine encodes a segment, every packet is the same. Under
// GOMAXPROCS(1) the helper rarely runs and main encodes nearly every
// segment inline; under GOMAXPROCS(4) the helper encodes most of them.
// Outputs, BT, cycles, layer stats, energy counters and packet counts must
// agree bit for bit, for every ordering, index mode and lane format, on
// a single Infer and on serial and pipelined batches.
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

// TestEncodeAheadParksOnFullRing pins the helper's wait policy on a layer
// of more than aheadDepth segments per MC: the helper fills every ring
// and blocks rather than spinning; the sends of another aheadDepth/2
// segments at one MC, and not fewer, wake it to refill that ring; halt
// joins it while it waits on full rings; and every slot main takes holds
// the segment an inline encode would produce.
func TestEncodeAheadParksOnFullRing(t *testing.T) {
	m := microNet(rand.New(rand.NewSource(5)))
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = flit.Separated // out-of-band partner tables ride in the slots too
	eng := mustNew(t, cfg, m)
	base := runtime.NumGoroutine()
	s := newScheduler(context.Background(), eng, nil)
	g := eng.layerGeometry(0)
	conv, x := m.Layers[0].(*dnn.Conv2D), testInput(m, 3)
	nl, err := newConvLayer(conv, x)
	if err == nil {
		nl.enc, err = eng.newCodec(0, g.Format, conv.W.Data, x.Data, conv.B.Data)
	}
	if err != nil {
		t.Fatal(err)
	}
	a := eng.ahead
	a.start()
	halted := false
	defer func() {
		if !halted {
			a.halt()
		}
	}()
	run, err := s.dispatch(&flow{}, nl, g)
	if err != nil {
		t.Fatal(err)
	}
	if per := nl.ntasks / a.mcs; per <= 2*aheadDepth {
		t.Fatalf("layer sends %d segments per MC, want more than %d", per, 2*aheadDepth)
	}

	// published reports whether MC m's ring holds segments lo..hi-1,
	// published and not yet taken.
	published := func(m int, lo, hi uint64) bool {
		for c := lo; c < hi; c++ {
			if a.slot(m, c).state.Load() != c<<1|1 {
				return false
			}
		}
		return true
	}
	// waitParked waits until the helper is blocked on its wake channel
	// with MC 0's ring holding segments lo..lo+aheadDepth-1 and MC 1's
	// its first aheadDepth.
	waitParked := func(lo uint64, when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; {
			if a.parked.Load() && published(0, lo, lo+aheadDepth) && published(1, 0, aheadDepth) && helperBlocked() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: helper did not park on full rings (parked %v)", when, a.parked.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitParked(0, "after dispatch")

	// send takes MC 0's next segment as main does and checks it against an
	// inline encode of the same segment.
	feed := feedAt(run, 0)
	var enc segEncoder
	pool := flit.NewPool(a.linkBits)
	send := func() {
		t.Helper()
		k := feed.next
		sl := a.take(0)
		if sl == nil {
			t.Fatalf("segment %d (run index %d) was not published", a.sent[0]-1, k)
		}
		if err := a.encode(&enc, run, feed.task, k, pool); err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, v := range append(enc.fz.Data, enc.fz.Index...) {
			want = append(want, v.Words()...)
		}
		if got := sl.code.words[:sl.code.flits*a.wpf]; !slices.Equal(got, want) {
			t.Fatalf("segment %d: slot words differ from an inline encode", k)
		}
		if !slices.Equal(sl.code.partner, enc.fz.PartnerIndex) {
			t.Fatalf("segment %d: slot partner table %v, inline %v", k, sl.code.partner, enc.fz.PartnerIndex)
		}
		a.release(0, sl)
		feed.step(a.mcs)
	}

	for range aheadDepth/2 - 1 {
		send()
	}
	// One send short of the low-water mark the helper stays parked and
	// the freed slots stay empty.
	time.Sleep(20 * time.Millisecond)
	if !a.parked.Load() || !helperBlocked() {
		t.Fatal("helper woke before MC 0 sent aheadDepth/2 segments")
	}
	for c := uint64(aheadDepth); c < aheadDepth+aheadDepth/2-1; c++ {
		if st := a.slot(0, c).state.Load(); st != c<<1 {
			t.Fatalf("slot of segment %d in state %#x before the low-water mark, want %#x", c, st, c<<1)
		}
	}
	send()
	waitParked(aheadDepth/2, "after the low-water mark")

	// Drain the refilled ring: all of it was published by the helper.
	for range aheadDepth {
		send()
	}
	waitParked(aheadDepth+aheadDepth/2, "after a second refill")

	halted = true
	a.halt()
	waitGoroutines(t, base, "after halt on full rings")
}

// helperBlocked reports whether an encode-ahead helper is blocked in park
// on its wake channel: parked, not spinning.
func helperBlocked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*encodeAhead).park(")) && bytes.Contains(g, []byte("[chan receive")) {
			return true
		}
	}
	return false
}
