package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateStepGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

const stepGoldenPath = "testdata/step_golden.json"

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
	got := stepGoldenCases(t)
	if *updateStepGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stepGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(stepGoldenPath)
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
			t.Errorf("%s: Step digest %s, golden %s", name, got[name], digest)
		}
	}
}
