package accel

import (
	"context"
	"math/rand"
	"testing"
	"unsafe"

	"nocbt/internal/flit"
)

// TestSegmentRecordSize: a layer of DarkNet dispatches tens of thousands of
// segments at once, so what a run keeps per segment is its state byte and
// nothing more; task, segment index and pair count follow from the packet
// ID and the per-task offsets.
func TestSegmentRecordSize(t *testing.T) {
	var run layerRun
	if n := unsafe.Sizeof(run.state[0]); n > 1 {
		t.Errorf("per-segment record is %d bytes, budget 1", n)
	}
}

// TestRunStorageBudget: a layer run's bookkeeping follows its tasks and
// the packets in flight, not its segments. On a cold engine's first call,
// with tasks split into several segments, the runs take at most one byte
// per segment (its state) and a bounded few per task (its segment offset),
// and the call's tables hold fewer entries than a quarter of the segments.
// A warm call takes the same storage again from the engine's slabs.
func TestRunStorageBudget(t *testing.T) {
	const (
		maxBytesPerSegment = 1
		maxBytesPerTask    = 8
	)
	m := tinyNet(rand.New(rand.NewSource(53)))
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.MaxSegmentPairs = 7 // split tasks into several segments
	eng := mustNew(t, cfg, m)
	for call := range 2 {
		before := eng.TaskPackets()
		if _, err := eng.Infer(context.Background(), testInput(m, 2)); err != nil {
			t.Fatal(err)
		}
		segs := eng.TaskPackets() - before
		tasks := 0
		for _, st := range eng.LayerStats() {
			tasks += st.Tasks
		}
		if segs <= int64(tasks) {
			t.Fatalf("call %d: %d segments for %d tasks; the test needs split tasks", call, segs, tasks)
		}
		perSeg := float64(eng.stateSlab.need*int(unsafe.Sizeof(segState(0)))) / float64(segs)
		perTask := float64(eng.startSlab.need*int(unsafe.Sizeof(int32(0)))) / float64(tasks)
		t.Logf("call %d: %d segments, %d tasks: %.2f bytes per segment, %.2f per task", call, segs, tasks, perSeg, perTask)
		if perSeg > maxBytesPerSegment {
			t.Errorf("call %d: runs took %.2f bytes per segment, budget %d", call, perSeg, maxBytesPerSegment)
		}
		if perTask > maxBytesPerTask {
			t.Errorf("call %d: runs took %.2f bytes per task, budget %d", call, perTask, maxBytesPerTask)
		}
		tb := &eng.tables
		if n := cap(tb.refs) + cap(tb.pending) + cap(tb.early) + cap(tb.runs); int64(n) >= segs/4 {
			t.Errorf("call %d: call tables hold %d entries for %d segments", call, n, segs)
		}
		if call > 0 && (len(eng.stateSlab.buf) != eng.stateSlab.need || len(eng.startSlab.buf) != eng.startSlab.need) {
			t.Errorf("warm call took run storage beyond the slabs: states %d of %d, offsets %d of %d",
				eng.stateSlab.need, len(eng.stateSlab.buf), eng.startSlab.need, len(eng.startSlab.buf))
		}
	}
}

// TestRunSlabsExact: a dispatched run's state bytes and task offsets are
// exact-size slices — one counting pass, no append growth — on a fresh
// engine and on a warm one whose calls reuse the previous call's slabs, so
// appending to one run's slice cannot spill into the next run's.
func TestRunSlabsExact(t *testing.T) {
	m := tinyNet(rand.New(rand.NewSource(53)))
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.MaxSegmentPairs = 7 // split tasks into several segments
	eng := mustNew(t, cfg, m)
	if _, err := eng.Infer(context.Background(), testInput(m, 2)); err != nil {
		t.Fatal(err)
	}
	for i, e := range []*Engine{mustNew(t, cfg, m), eng} {
		s := newScheduler(context.Background(), e, []flow{{act: testInput(m, 2)}})
		if err := s.advance(&s.flows[0]); err != nil {
			t.Fatal(err)
		}
		run := s.flows[0].cur
		if len(run.state) <= run.layer.ntasks {
			t.Fatalf("engine %d: %d segments for %d tasks; the test needs split tasks", i, len(run.state), run.layer.ntasks)
		}
		if cap(run.state) != len(run.state) || cap(run.segStart) != len(run.segStart) || len(run.segStart) != run.layer.ntasks+1 {
			t.Errorf("engine %d: state len %d cap %d, segStart len %d cap %d for %d tasks; want exact sizes",
				i, len(run.state), cap(run.state), len(run.segStart), cap(run.segStart), run.layer.ntasks)
		}
		s.reset()
	}
}

// TestNewAllocs pins accel.New's allocations on the 4x4/MC2 test net: the
// simulator is built once, with the engine's own link coding as its coding
// 0, rather than built plain and then recoded, and a coding is built once
// for every link rather than one coder at a time.
func TestNewAllocs(t *testing.T) {
	m := tinyNet(rand.New(rand.NewSource(55)))
	for _, tc := range []struct {
		coding string
		budget int
	}{
		{"", 29},
		{"businvert", 29},
	} {
		cfg := Mesh4x4MC2(paperFixed8)
		cfg.LinkCoding = tc.coding
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := New(cfg, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(tc.budget) {
			t.Errorf("coding %q: New made %.0f allocations, budget %d", tc.coding, allocs, tc.budget)
		} else {
			t.Logf("coding %q: New made %.0f allocations", tc.coding, allocs)
		}
	}
}

// TestPartnerTablesHeldInFlight: under out-of-band O2 every task packet in
// flight holds one partner table by handle from send to its PE's decode,
// so after a call every handle is free and the store holds no more tables
// than packets were in flight at once — not one per packet sent.
func TestPartnerTablesHeldInFlight(t *testing.T) {
	m := tinyNet(rand.New(rand.NewSource(57)))
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = flit.Separated
	eng := mustNew(t, cfg, m)
	for range 2 {
		if _, err := eng.Infer(context.Background(), testInput(m, 3)); err != nil {
			t.Fatal(err)
		}
	}
	pt := &eng.partners
	if len(pt.free) != len(pt.tables) {
		t.Errorf("%d of %d partner handles free after the calls", len(pt.free), len(pt.tables))
	}
	if sent := eng.TaskPackets(); len(pt.tables) == 0 || int64(len(pt.tables)) >= sent/4 {
		t.Errorf("%d partner tables for %d task packets sent", len(pt.tables), sent)
	} else {
		t.Logf("%d partner tables for %d task packets sent", len(pt.tables), sent)
	}
}
