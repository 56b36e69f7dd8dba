package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

func buildSim(t *testing.T) (*noc.Sim, *Recorder) {
	t.Helper()
	sim, err := noc.New(noc.Config{Width: 3, Height: 3, VCs: 4, BufDepth: 4, LinkBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	sim.SetTrace(rec.Hook())
	return sim, rec
}

func injectRandom(t *testing.T, sim *noc.Sim, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		src := rng.Intn(9)
		dst := rng.Intn(9)
		for dst == src {
			dst = rng.Intn(9)
		}
		numFlits := 1 + rng.Intn(4)
		vecs := make([]bitutil.Vec, numFlits)
		for j := range vecs {
			v := bitutil.NewVec(16)
			v.SetField(0, 16, rng.Uint64())
			vecs[j] = v
		}
		pkt := flit.NewPacket(uint64(i+1), src, dst, vecs[0], vecs[1:])
		if err := sim.Inject(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Drain(100000); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderMatchesSimCounters is the cross-check: the trace-derived BT
// totals must equal the simulator's own per-link recorders, class by class.
func TestRecorderMatchesSimCounters(t *testing.T) {
	sim, rec := buildSim(t)
	injectRandom(t, sim, 100, 1)

	st := sim.Stats()
	if got := rec.TotalBT(noc.RouterLink); got != st.RouterBT {
		t.Errorf("trace router BT %d, sim %d", got, st.RouterBT)
	}
	if got := rec.TotalBT(noc.EjectionLink); got != st.EjectionBT {
		t.Errorf("trace ejection BT %d, sim %d", got, st.EjectionBT)
	}
	if got := rec.TotalBT(noc.InjectionLink); got != st.InjectionBT {
		t.Errorf("trace injection BT %d, sim %d", got, st.InjectionBT)
	}
	if got := rec.TotalBT(); got != st.RouterBT+st.EjectionBT+st.InjectionBT {
		t.Errorf("trace total %d != sum of classes", got)
	}
	// A nil scheme is plain binary, as everywhere else: its recount is the
	// uncoded total, per class and overall.
	for _, class := range []noc.LinkClass{noc.RouterLink, noc.EjectionLink, noc.InjectionLink} {
		if got, err := rec.CodedBT(nil, class); err != nil || got != rec.TotalBT(class) {
			t.Errorf("CodedBT(nil, %s) = %d, %v; TotalBT %d", class, got, err, rec.TotalBT(class))
		}
	}
	if got, err := rec.CodedBT(nil); err != nil || got != st.RouterBT+st.EjectionBT+st.InjectionBT {
		t.Errorf("CodedBT(nil) = %d, %v; sum of classes %d", got, err, st.RouterBT+st.EjectionBT+st.InjectionBT)
	}
}

func TestPerLinkBTMatchesSim(t *testing.T) {
	sim, rec := buildSim(t)
	injectRandom(t, sim, 60, 2)
	per := rec.PerLinkBT()
	for _, ls := range sim.LinkStats() {
		if ls.BT != per[ls.Name] {
			t.Errorf("link %s: trace %d, sim %d", ls.Name, per[ls.Name], ls.BT)
		}
	}
}

func TestPacketHops(t *testing.T) {
	sim, rec := buildSim(t)
	// One packet from corner (0,0) to corner (2,2): 4 router hops means 5
	// head-flit link crossings (injection + 4 inter-router... plus
	// ejection = 6 total crossings).
	v := bitutil.NewVec(16)
	pkt := flit.NewPacket(1, 0, 8, v, nil)
	if err := sim.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	if err := sim.Drain(1000); err != nil {
		t.Fatal(err)
	}
	hops := rec.PacketHops()
	if hops[1] != 6 {
		t.Errorf("corner-to-corner crossings = %d, want 6", hops[1])
	}
}

func TestEventsOrderedByCycle(t *testing.T) {
	sim, rec := buildSim(t)
	injectRandom(t, sim, 40, 3)
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("events out of cycle order at %d", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	sim, rec := buildSim(t)
	injectRandom(t, sim, 30, 4)

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Events()
	if len(events) != len(want) {
		t.Fatalf("read %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, events[i], want[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong header accepted")
	}
	bad := strings.Join(csvHeader, ",") + "\nnotanumber,l,1,1,0,0,1,2\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad cycle cell accepted")
	}
}
