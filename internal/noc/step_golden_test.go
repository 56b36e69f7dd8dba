package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"nocbt/internal/flit"
	"nocbt/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// stepDigest hashes everything a Step run is observed by: the
// (cycle, node, packet ID) ejection sequence, the per-link counters in
// LinkStats order, and Stats. It reads only the exported surface, so it
// stays valid across changes to the simulator's internal data layout.
func stepDigest(run allocRun) string {
	h := sha256.New()
	for _, e := range run.ejections {
		fmt.Fprintf(h, "eject %d %d %d\n", e.cycle, e.node, e.id)
	}
	for _, l := range run.links {
		fmt.Fprintf(h, "link %s %s %d %d\n", l.Name, l.Class, l.BT, l.Flits)
	}
	fmt.Fprintf(h, "stats %+v\n", run.stats)
	return hex.EncodeToString(h.Sum(nil))
}

// stepGoldenCases runs the TestAllocatorMatchesSlotScan traffic grid —
// every topology × VC count × buffer depth, seeds 1–2 — through Step and
// returns each run's digest keyed by case and seed.
func stepGoldenCases(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, topo := range allocTopologies {
		for _, vcs := range []int{1, 2, 4, 8, 16} {
			for _, depth := range []int{1, 2, 4} {
				c := topo
				c.vcs, c.depth = vcs, depth
				cfg := c.config()
				if err := cfg.Validate(); err != nil {
					continue
				}
				for seed := int64(1); seed <= 2; seed++ {
					run := runAllocTraffic(t, cfg, seed, 150, 0.3, false)
					got[fmt.Sprintf("%v/seed%d", c, seed)] = stepDigest(run)
				}
			}
		}
	}
	return got
}

// TestStepMatchesGolden pins Step's observable behaviour — ejection
// timing, per-link BT and flit counts, latency statistics — to digests
// recorded from the pointer-based simulator that preceded the flat slot
// layout. Unlike TestAllocatorMatchesSlotScan, whose oracle runs on the
// same data structures as Step, this check does not move with the code.
// Regenerate with `go test -run TestStepMatchesGolden -update` only for an
// intended behaviour change.
func TestStepMatchesGolden(t *testing.T) {
	matchGolden(t, "testdata/step_golden.json", stepGoldenCases(t))
}

// spanGoldenCases runs the TestChromeTraceRoundTrip traffic twice — once
// under a full-sampling span tracer, once sampling every fourth packet ID
// with a TraceFunc installed as well — and returns sha256 digests of each
// run's Chrome export and of the TraceFunc event sequence.
func spanGoldenCases(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)
	run := func(name string, sample uint64, fn TraceFunc) {
		s, err := New(testConfig(4, 4, 8))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(1 << 16)
		tr.SetSample(sample)
		s.SetSpanTracer(tr)
		s.SetTrace(fn)
		runChromeTraffic(t, s)
		h := sha256.New()
		if err := tr.WriteChrome(h); err != nil {
			t.Fatal(err)
		}
		got[name+"/chrome"] = hex.EncodeToString(h.Sum(nil))
	}
	run("full", 1, nil)
	events := sha256.New()
	run("sampled", 4, func(cycle int64, link string, class LinkClass, f *flit.Flit) {
		fmt.Fprintf(events, "%d %s %s %d %d\n", cycle, link, class, f.PacketID, f.Seq)
	})
	got["sampled/trace"] = hex.EncodeToString(events.Sum(nil))
	return got
}

// TestSpanTraceMatchesGolden pins the bytes of the span tracer's Chrome
// export and the TraceFunc event sequence (cycle, link, class, packet ID,
// flit index) to digests recorded before the two delivery observers were
// folded into one. TestChromeTraceRoundTrip checks the trace's structure;
// this checks that none of it moved. Regenerate with
// `go test -run TestSpanTraceMatchesGolden -update` only for an intended
// behaviour change.
func TestSpanTraceMatchesGolden(t *testing.T) {
	matchGolden(t, "testdata/span_golden.json", spanGoldenCases(t))
}

// matchGolden compares digests by case name with the JSON golden at path,
// rewriting it under -update.
func matchGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden cases, recorded %d", len(got), len(want))
	}
	for name, digest := range want {
		if got[name] != digest {
			t.Errorf("%s: digest %s, golden %s", name, got[name], digest)
		}
	}
}
