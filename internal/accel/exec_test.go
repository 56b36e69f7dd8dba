package accel

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
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
		layer:    nocLayer{name: "forged", ntasks: tasks},
		base:     1,
		segStart: make([]int32, tasks+1),
		segs:     make([]segment, tasks),
		deadline: eng.sim.Cycle() + eng.cfg.DrainCycleCap,
	}
	for i := range run.segs {
		run.segStart[i+1] = int32(i + 1)
		run.segs[i] = segment{task: int32(i), pairs: 1}
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
	if run.received != 1 || run.segs[0].state != segDone {
		t.Fatalf("first result not recorded: received=%d", run.received)
	}
	err := deliverToMC(t, eng, s, resultPacket(eng, 1003, 0, 0, 2))
	if err == nil || !strings.Contains(err.Error(), "duplicate result") {
		t.Fatalf("duplicate result not rejected: %v", err)
	}
	if run.received != 1 {
		t.Errorf("duplicate still incremented received: %d", run.received)
	}
	if got := run.segs[0].partial; got != 1 {
		t.Errorf("duplicate overwrote partial: %v", got)
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
			sg := &f.cur.segs[0]
			partner := eng.partners.table(sg.partner)
			if sg.state != segSent || len(partner) < 2 {
				t.Fatalf("first segment not sent with a partner table: %+v, table %v", sg, partner)
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
