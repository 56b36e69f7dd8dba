package accel

import (
	"context"
	"math/rand"
	"testing"
	"unsafe"

	"nocbt/internal/flit"
)

// TestSegmentRecordSize: a layer of DarkNet dispatches tens of thousands of
// segment records at once, so the record stays a fixed few words; an
// out-of-band partner table is held by handle, not by slice header.
func TestSegmentRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(segment{}); n > 24 {
		t.Errorf("segment record is %d bytes, budget 24", n)
	}
}

// TestRunSlabsExact: a dispatched run's segment records and task offsets
// are exact-size slices — one counting pass, no append growth — on a fresh
// engine and on a warm one whose calls reuse the previous call's slabs.
func TestRunSlabsExact(t *testing.T) {
	m := tinyNet(rand.New(rand.NewSource(53)))
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.MaxSegmentPairs = 7 // split tasks into several segments
	eng := mustNew(t, cfg, m)
	for call := range 2 {
		s := newScheduler(context.Background(), eng, []flow{{act: testInput(m, 2)}})
		f := &s.flows[0]
		if err := s.advance(f); err != nil {
			t.Fatal(err)
		}
		run := f.cur
		if len(run.segs) <= run.layer.ntasks {
			t.Fatalf("call %d: %d segments for %d tasks; the test needs split tasks", call, len(run.segs), run.layer.ntasks)
		}
		if cap(run.segs) != len(run.segs) || cap(run.segStart) != len(run.segStart) || len(run.segStart) != run.layer.ntasks+1 {
			t.Errorf("call %d: segs len %d cap %d, segStart len %d cap %d for %d tasks; want exact sizes",
				call, len(run.segs), cap(run.segs), len(run.segStart), cap(run.segStart), run.layer.ntasks)
		}
		s.reset()
	}
}

// TestNewAllocs pins accel.New's allocations on the 4x4/MC2 test net: the
// simulator is built once, with the engine's own link coding as its coding
// 0, rather than built plain and then recoded.
func TestNewAllocs(t *testing.T) {
	const budget = 29
	m := tinyNet(rand.New(rand.NewSource(55)))
	cfg := Mesh4x4MC2(paperFixed8)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := New(cfg, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("New made %.0f allocations, budget %d", allocs, budget)
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
