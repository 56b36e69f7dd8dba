package accel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// The collector/PE validation suite forges wire packets with inconsistent
// headers and asserts the scheduler rejects them with errors. The old
// runTasks loop indexed partials with unvalidated header fields — an
// out-of-range TaskID panicked, and a duplicate result silently overwrote a
// partial while double-incrementing the received counter.

// mkValidationScheduler builds an engine plus an empty scheduler with one
// in-flight layer run of `tasks` single-segment tasks, whose task packets
// would carry IDs 1..tasks.
func mkValidationScheduler(t *testing.T, tasks int) (*Engine, *scheduler, *layerRun) {
	t.Helper()
	m := tinyNet(rand.New(rand.NewSource(51)))
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	s := newScheduler(context.Background(), eng, []flow{{idx: 0}})
	run := &layerRun{
		flow:     &s.flows[0],
		layer:    nocLayer{name: "forged", ntasks: tasks, fanIn: 1},
		base:     1,
		maxSeg:   eng.cfg.MaxSegmentPairs,
		segStart: make([]int32, tasks+1),
		state:    make([]segState, tasks),
		out:      make([]float32, tasks),
		deadline: eng.sim.Cycle() + eng.cfg.DrainCycleCap,
	}
	for i := range tasks {
		run.segStart[i+1] = int32(i + 1)
	}
	s.activeRuns = append(s.activeRuns, run)
	return eng, s, run
}

// resultPacket crafts a result packet for the engine's first MC.
func resultPacket(eng *Engine, id uint64, taskID uint32, seg uint16, value float32) *flit.Packet {
	g := eng.cfg.Geometry
	mc := eng.cfg.MCs[0]
	pe := eng.pes[0]
	hdr := flit.EncodeHeader(g, flit.Header{
		Dst: uint16(mc), Src: uint16(pe),
		PacketID: uint32(id), TaskID: taskID,
		Kind: flit.KindResult, PairCount: seg,
	})
	body := bitutil.NewVec(g.LinkBits)
	body.SetField(0, 32, uint64(bitutil.Float32Word(value)))
	return flit.NewPacket(id, pe, mc, hdr, []bitutil.Vec{body})
}

// deliverToMC injects the packet and pumps the scheduler until the MC
// collector consumes it, returning pumpMCs's verdict.
func deliverToMC(t *testing.T, eng *Engine, s *scheduler, pkt *flit.Packet) error {
	t.Helper()
	if err := eng.sim.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		eng.sim.Step()
		if _, err := s.pumpMCs(); err != nil {
			return err
		}
		if !eng.sim.Busy() {
			return nil // packet ejected and consumed by the collector
		}
	}
	t.Fatal("packet never reached the MC")
	return nil
}

func TestCollectorRejectsUnknownResultPacket(t *testing.T) {
	eng, s, _ := mkValidationScheduler(t, 1)
	// No result registered for this ID: must error, not index partials.
	err := deliverToMC(t, eng, s, resultPacket(eng, 999, 0, 0, 1))
	if err == nil || !strings.Contains(err.Error(), "unknown or duplicate") {
		t.Fatalf("unknown result packet not rejected: %v", err)
	}
}

func TestCollectorRejectsOutOfRangeTaskID(t *testing.T) {
	eng, s, run := mkValidationScheduler(t, 1)
	// Context says task 0, header claims task 7 — the old code would have
	// panicked at partials[7].
	s.results.add(1000, run, 0)
	err := deliverToMC(t, eng, s, resultPacket(eng, 1000, 7, 0, 1))
	if err == nil || !strings.Contains(err.Error(), "task ID") {
		t.Fatalf("out-of-range task ID not rejected: %v", err)
	}
}

func TestCollectorRejectsOutOfRangeSegment(t *testing.T) {
	eng, s, run := mkValidationScheduler(t, 1)
	// Header claims segment 3 of a single-segment task — the old code would
	// have panicked at partials[0][3].
	s.results.add(1001, run, 0)
	err := deliverToMC(t, eng, s, resultPacket(eng, 1001, 0, 3, 1))
	if err == nil || !strings.Contains(err.Error(), "segment") {
		t.Fatalf("out-of-range segment not rejected: %v", err)
	}
}

func TestCollectorRejectsDuplicateResult(t *testing.T) {
	eng, s, run := mkValidationScheduler(t, 2)
	// Two distinct result packets claiming the same (task, segment): the
	// old code overwrote the partial and counted received twice, silently
	// finishing the layer with a missing contribution.
	s.results.add(1002, run, 0)
	s.results.add(1003, run, 0)
	if err := deliverToMC(t, eng, s, resultPacket(eng, 1002, 0, 0, 1)); err != nil {
		t.Fatalf("first result rejected: %v", err)
	}
	if run.received != 1 || run.state[0] != segDone {
		t.Fatalf("first result not recorded: received=%d", run.received)
	}
	err := deliverToMC(t, eng, s, resultPacket(eng, 1003, 0, 0, 2))
	if err == nil || !strings.Contains(err.Error(), "duplicate result") {
		t.Fatalf("duplicate result not rejected: %v", err)
	}
	if run.received != 1 {
		t.Errorf("duplicate still incremented received: %d", run.received)
	}
	if got := run.out[0]; got != 1 {
		t.Errorf("duplicate changed the partial sum: %v", got)
	}
}

func TestCollectorRejectsTaskPacketAtMC(t *testing.T) {
	eng, s, _ := mkValidationScheduler(t, 1)
	g := eng.cfg.Geometry
	mc := eng.cfg.MCs[0]
	pe := eng.pes[0]
	hdr := flit.EncodeHeader(g, flit.Header{
		Dst: uint16(mc), Src: uint16(pe),
		PacketID: 77, TaskID: 0, Kind: flit.KindTask, PairCount: 1,
	})
	body := bitutil.NewVec(g.LinkBits)
	pkt := flit.NewPacket(77, pe, mc, hdr, []bitutil.Vec{body})
	err := deliverToMC(t, eng, s, pkt)
	if err == nil || !strings.Contains(err.Error(), "non-result") {
		t.Fatalf("task packet at MC not rejected: %v", err)
	}
}

func TestPERejectsUnknownTaskPacket(t *testing.T) {
	eng, s, _ := mkValidationScheduler(t, 1)
	g := eng.cfg.Geometry
	mc := eng.cfg.MCs[0]
	pe := eng.pes[0]
	hdr := flit.EncodeHeader(g, flit.Header{
		Dst: uint16(pe), Src: uint16(mc),
		PacketID: 88, TaskID: 0, Kind: flit.KindTask, PairCount: 1,
	})
	body := bitutil.NewVec(g.LinkBits)
	pkt := flit.NewPacket(88, mc, pe, hdr, []bitutil.Vec{body})
	if err := eng.sim.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < 1000 && err == nil && eng.sim.Busy(); i++ {
		eng.sim.Step()
		err = s.pumpPEs()
	}
	if err == nil || !strings.Contains(err.Error(), "unknown packet") {
		t.Fatalf("unknown task packet not rejected: %v", err)
	}
}

// TestResultWindow: result IDs arrive in increasing order with gaps (IDs
// reserved for task packets in between) and are collected out of order;
// every registered ID resolves exactly once, unknown and repeated IDs miss,
// and collected entries are trimmed so the window tracks only live results.
func TestResultWindow(t *testing.T) {
	run := &layerRun{}
	var w resultWindow
	ids := []uint64{5, 6, 9, 40, 41, 42}
	for i, id := range ids {
		w.add(id, run, i)
	}
	if _, ok := w.take(7); ok {
		t.Error("gap ID 7 resolved")
	}
	for _, i := range []int{1, 0, 2, 5, 3} {
		ref, ok := w.take(ids[i])
		if !ok || ref.run != run || int(ref.seg) != i {
			t.Fatalf("take(%d) = %+v, %v; want segment %d", ids[i], ref, ok, i)
		}
		if _, ok := w.take(ids[i]); ok {
			t.Fatalf("take(%d) resolved twice", ids[i])
		}
	}
	if live := len(w.refs) - w.head; live > 3 {
		t.Errorf("window holds %d entries for one live result (ID 41), want it trimmed", live)
	}
	w.add(43, run, 6)
	for _, id := range []uint64{41, 43} {
		if _, ok := w.take(id); !ok {
			t.Fatalf("take(%d) missed after trimming", id)
		}
	}
	if len(w.refs) != 0 {
		t.Errorf("drained window keeps %d entries", len(w.refs))
	}
	if _, ok := w.take(3); ok {
		t.Error("ID below the window resolved")
	}
}

// TestPERejectsMalformedPartnerTable: a separated-ordering partner table
// that is not a permutation surfaces as a PE error naming the packet,
// instead of a panic (out-of-range entry) or a silently wrong partial sum
// (repeated entry).
func TestPERejectsMalformedPartnerTable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(p []int)
		want   string
	}{
		{"repeated entry", func(p []int) { p[1] = p[0] }, "repeated"},
		{"out of range", func(p []int) { p[0] = len(p) + 2 }, "outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tinyNet(rand.New(rand.NewSource(51)))
			cfg := Mesh4x4MC2(paperFixed8)
			cfg.Ordering = flit.Separated
			eng, err := New(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			s := newScheduler(context.Background(), eng, []flow{{act: testInput(m, 2)}})
			f := &s.flows[0]
			if err := s.advance(f); err != nil {
				t.Fatal(err)
			}
			// The first segment is the first packet the fresh engine sent,
			// so its head flit holds the first partner handle.
			partner := eng.partners.table(1)
			if st := f.cur.state[0]; st != segSent || len(partner) < 2 {
				t.Fatalf("first segment not sent with a partner table: state %d, table %v", st, partner)
			}
			tc.mangle(partner)
			for i := 0; i < 1000 && err == nil; i++ {
				eng.sim.Step()
				if err = s.feedMCs(); err == nil {
					err = s.pumpPEs()
				}
			}
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("packet %d:", f.cur.base)) ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("malformed partner table not rejected with the packet ID: %v", err)
			}
		})
	}
}

// TestCollectorAddsPartialsInSegmentOrder: one task's result packets
// delivered to the MC collector in reverse or scrambled segment order
// leave the task's output bit-identical to in-order delivery, on a linear
// layer dispatched with small segments. The partials are chosen so that
// their float32 sum depends on the order they are added in.
func TestCollectorAddsPartialsInSegmentOrder(t *testing.T) {
	partials := []float32{1e8, 1, -1e8, 1, 0.5, -3, 7}
	var inOrder, reversed float32
	for i := range partials {
		inOrder += partials[i]
		reversed += partials[len(partials)-1-i]
	}
	if inOrder == reversed {
		t.Fatalf("partials sum to %v in either order; the test needs an order-dependent sum", inOrder)
	}
	collect := func(order []int) float32 {
		t.Helper()
		m := tinyNet(rand.New(rand.NewSource(51)))
		cfg := Mesh4x4MC2(paperFixed8)
		cfg.MaxSegmentPairs = 7
		eng := mustNew(t, cfg, m)
		s := newScheduler(context.Background(), eng, []flow{{}})
		defer s.reset()
		lin, x := m.Layers[4].(*dnn.Linear), testInput(m, 2)
		x = tensor.FromSlice(x.Data[:lin.In], lin.In)
		nl, err := newLinearLayer(lin, x)
		if err == nil {
			nl.enc, err = eng.newCodec(1, eng.layerGeometry(1).Format, lin.W.Data, x.Data, lin.B.Data)
		}
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.dispatch(&s.flows[0], nl, eng.layerGeometry(1))
		if err != nil {
			t.Fatal(err)
		}
		if n := int(run.segStart[1] - run.segStart[0]); n != len(partials) {
			t.Fatalf("task 0 splits into %d segments, want %d", n, len(partials))
		}
		ids := make([]uint64, len(partials))
		for seg := range partials {
			ids[seg] = eng.nextID()
			s.results.add(ids[seg], run, seg)
		}
		for _, seg := range order {
			if err := deliverToMC(t, eng, s, resultPacket(eng, ids[seg], 0, uint16(seg), partials[seg])); err != nil {
				t.Fatal(err)
			}
		}
		for seg := range partials {
			if run.state[seg] != segDone {
				t.Errorf("order %v: segment %d in state %d after every partial arrived", order, seg, run.state[seg])
			}
		}
		if len(s.early) != 0 || run.received != len(partials) {
			t.Errorf("order %v: %d partials still waiting, %d received", order, len(s.early), run.received)
		}
		return run.out[0]
	}
	want := collect([]int{0, 1, 2, 3, 4, 5, 6})
	if math.Float32bits(want) != math.Float32bits(inOrder) {
		t.Fatalf("in-order delivery sums to %v, want %v", want, inOrder)
	}
	for _, order := range [][]int{{6, 5, 4, 3, 2, 1, 0}, {2, 0, 6, 1, 4, 3, 5}} {
		if got := collect(order); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("delivery in order %v sums to %v, in-order delivery to %v", order, got, want)
		}
	}
}
