package noc

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"nocbt/internal/flit"
	"nocbt/internal/obs"
)

// chromeDoc mirrors the Chrome trace-event JSON shape for round-trip
// verification.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int64          `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// runChromeTraffic drives seed-7 random traffic through a 4×4 mesh: eight
// rounds of twelve 1–4-payload packets with IDs 1–96, five cycles apart,
// then drains the mesh and pops every ejected packet.
func runChromeTraffic(t *testing.T, s *Sim) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	id := uint64(1)
	for round := 0; round < 8; round++ {
		for n := 0; n < 12; n++ {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src == dst {
				dst = (dst + 1) % 16
			}
			payloads := make([]uint64, 1+rng.Intn(4))
			for i := range payloads {
				payloads[i] = rng.Uint64() & 0xFF
			}
			if err := s.Inject(mkPacket(id, src, dst, 8, payloads...)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for c := 0; c < 5; c++ {
			s.Step()
		}
	}
	if err := s.Drain(10000); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 16; node++ {
		s.PopEjected(node)
	}
}

// TestChromeTraceRoundTrip is the span-tracer analogue of the trace
// package's CSV round-trip test: run random traffic on a 4×4 mesh with the
// span tracer installed, export Chrome trace-event JSON, and verify the
// trace is (a) valid trace-event format, (b) correctly nested — every hop
// span inside its packet span on the packet's track — and (c) a faithful
// recount: per-link bt attributes re-sum to the sim recorders' totals.
func TestChromeTraceRoundTrip(t *testing.T) {
	s, err := New(testConfig(4, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 16)
	s.SetSpanTracer(tr)
	runChromeTraffic(t, s)

	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; ring too small for the workload", tr.Dropped())
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Index packet spans by track and collect per-link BT from hop spans.
	type window struct{ start, end int64 }
	packets := make(map[int64]window)
	var packetCount int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete events only", ev.Name, ev.Ph)
		}
		if ev.Name == "packet" {
			packets[ev.TID] = window{ev.TS, ev.TS + ev.Dur}
			packetCount++
			if _, ok := ev.Args["src"]; !ok {
				t.Fatalf("packet span missing src attr: %+v", ev.Args)
			}
		}
	}
	if packetCount != int(s.Stats().PacketsDelivered) {
		t.Fatalf("trace has %d packet spans, sim delivered %d", packetCount, s.Stats().PacketsDelivered)
	}

	perLink := make(map[string]int64)
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "hop", "ni.inject", "ni.reassemble":
			w, ok := packets[ev.TID]
			if !ok {
				t.Fatalf("%s span on track %d has no packet span", ev.Name, ev.TID)
			}
			if ev.TS < w.start || ev.TS+ev.Dur > w.end {
				t.Fatalf("%s span [%d,%d] escapes packet window [%d,%d]",
					ev.Name, ev.TS, ev.TS+ev.Dur, w.start, w.end)
			}
		}
		if ev.Name == "hop" {
			link, ok := ev.Args["link"].(string)
			if !ok {
				t.Fatalf("hop span missing link attr: %+v", ev.Args)
			}
			bt, ok := ev.Args["bt"].(float64)
			if !ok {
				t.Fatalf("hop span missing bt attr: %+v", ev.Args)
			}
			perLink[link] += int64(bt)
		}
	}

	// Every sampled packet was recorded (default sampling keeps all), so
	// the hop spans must recount the recorders exactly, link by link.
	for _, ls := range s.LinkStats() {
		if got := perLink[ls.Name]; got != ls.BT {
			t.Fatalf("link %s: hop spans re-sum to %d BT, recorder says %d", ls.Name, got, ls.BT)
		}
	}
	var total int64
	for _, bt := range perLink {
		total += bt
	}
	st := s.Stats()
	if want := st.RouterBT + st.EjectionBT + st.InjectionBT; total != want {
		t.Fatalf("hop spans re-sum to %d total BT, recorders say %d", total, want)
	}
}

// TestChromeTraceSampling checks that a sampling modulus traces only the
// matching packet IDs and leaves the rest unrecorded.
func TestChromeTraceSampling(t *testing.T) {
	s, err := New(testConfig(4, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 12)
	tr.SetSample(4)
	s.SetSpanTracer(tr)
	for id := uint64(1); id <= 16; id++ {
		if err := s.Inject(mkPacket(id, 0, 15, 8, 0xAA, 0x55)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(10000); err != nil {
		t.Fatal(err)
	}
	s.PopEjected(15)
	var packets int
	for _, sp := range tr.Snapshot() {
		if sp.Name == "packet" {
			packets++
		}
	}
	if packets != 4 { // IDs 4, 8, 12, 16
		t.Fatalf("sampled trace has %d packet spans, want 4", packets)
	}
}

// TestSpanTracerDisabledNoSpans pins the zero-cost contract: without
// SetSpanTracer the sim records nothing and holds no per-packet state.
func TestSpanTracerDisabledNoSpans(t *testing.T) {
	s, err := New(testConfig(2, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(mkPacket(1, 0, 3, 8, 0xFF)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if s.observer != nil {
		t.Fatal("observer must stay nil while tracing is disabled")
	}
}

// TestSpanTraceRepeatedPacketIDs sends two packets that share ID 7 from
// different sources under a full-sampling tracer. The observer must not
// let the second packet overwrite the first one's open span records: after
// the drain no record is left open, and each packet span's hop spans
// re-sum to exactly that packet's link BT.
func TestSpanTraceRepeatedPacketIDs(t *testing.T) {
	s, err := New(testConfig(4, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 12)
	s.SetSpanTracer(tr)
	// The TraceFunc recounts each packet's BT independently of the spans:
	// a crossing's BT is the link recorder's delta on delivery.
	links := make(map[string]*Link)
	for i := range s.links {
		links[s.links[i].Name] = &s.links[i]
	}
	linkBT := make(map[int]int64) // by source node
	s.SetTrace(func(_ int64, name string, _ LinkClass, f *flit.Flit) {
		linkBT[f.Src] += links[name].lastBT
	})
	for _, p := range []*flit.Packet{
		mkPacket(7, 0, 15, 8, 0xAA, 0x55, 0xF0),
		mkPacket(7, 5, 3, 8, 0x0F, 0xFF, 0x3C),
	} {
		if err := s.Inject(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PacketsDelivered; got != 2 {
		t.Fatalf("delivered %d packets, want 2", got)
	}
	if n := len(s.observer.open); n != 0 {
		t.Fatalf("%d span records still open after the drain", n)
	}

	// Each packet span owns the hop spans on its track inside its window;
	// its src attribute names the packet.
	attr := func(sp obs.Span, key string) int64 {
		for _, a := range sp.Attrs[:sp.N] {
			if a.Key == key {
				return a.Num
			}
		}
		return -1
	}
	spans := tr.Snapshot()
	var packets int
	for _, p := range spans {
		if p.Name != "packet" {
			continue
		}
		packets++
		var hopBT int64
		for _, h := range spans {
			if h.Name == "hop" && h.TID == p.TID && h.Start >= p.Start && h.Start+h.Dur <= p.Start+p.Dur {
				hopBT += attr(h, "bt")
			}
		}
		if src := int(attr(p, "src")); hopBT != linkBT[src] {
			t.Errorf("packet from node %d: hop spans re-sum to %d BT, its link BT is %d", src, hopBT, linkBT[src])
		}
	}
	if packets == 0 {
		t.Fatal("trace has no packet span")
	}
}

// TestSetSpanTracerNilResets removes an installed tracer mid-flight: the
// PID must read 0 again, and the open span records must go with the
// tracer, so a tracer installed later never ends the old one's spans.
func TestSetSpanTracerNilResets(t *testing.T) {
	s, err := New(testConfig(4, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	old := obs.NewTracer(1 << 12)
	s.SetSpanTracer(old)
	if err := s.Inject(mkPacket(1, 0, 15, 8, 0xAA, 0x55)); err != nil {
		t.Fatal(err)
	}
	s.Step()
	s.Step()
	if s.SpanPID() == 0 || len(s.observer.open) != 1 {
		t.Fatalf("mid-flight: PID %d and %d open span records, want a PID and 1", s.SpanPID(), len(s.observer.open))
	}
	s.SetSpanTracer(nil)
	if pid := s.SpanPID(); pid != 0 || s.observer != nil {
		t.Fatalf("after removing the tracer: SpanPID() = %d, observer %v; want 0 and nil", pid, s.observer)
	}
	committed := old.Len()
	fresh := obs.NewTracer(1 << 12)
	s.SetSpanTracer(fresh)
	if err := s.Drain(1000); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 0 || old.Len() != committed {
		t.Fatalf("the packet traced before the swap committed %d spans to the new tracer, %d to the removed one",
			fresh.Len(), old.Len()-committed)
	}
}
