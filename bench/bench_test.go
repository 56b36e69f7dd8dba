package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nocbt"
)

func loadTestSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// maxBound caps every end-to-end bound. A bound is a share of the parent's
// median; README.md gives the spreads each one was derived from.
const maxBound = 0.25

// TestBenchmarkDescription holds BENCHMARK.json to what this program
// implements and to the limits on its bounds.
func TestBenchmarkDescription(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	seen := map[string]bool{}
	var setupBound, largest float64
	for i, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if seen[m.Name] || m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v: duplicate name, empty unit or bad direction", m)
			}
			seen[m.Name] = true
			switch {
			case i == 0 && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound):
				t.Errorf("end-to-end metric %q needs a bound in (0, %v]", m.Name, maxBound)
			case i == 1 && m.Bound != nil:
				t.Errorf("per-layer metric %q has a bound", m.Name)
			case i == 0:
				largest = max(largest, *m.Bound)
				if m.Name == "setup_s" {
					setupBound = *m.Bound
				}
			}
		}
	}
	if !seen["setup_s"] || setupBound < largest {
		t.Errorf("setup_s must be an end-to-end metric with the largest bound")
	}
}

// runSmoke runs a workload with one op, one set-up repetition and one
// repetition of each probe, and checks that it reports exactly the
// metrics BENCHMARK.json lists for its mode, each with its unit.
func runSmoke(t *testing.T, w workload, trace bool, pins map[string]string) (result, *run) {
	t.Helper()
	spec := loadTestSpec(t)
	r := newRun(context.Background(), config{seed: 1, trace: trace}, testLog{t})
	r.repBudget, r.probeReps, r.pins = 0, 1, pins
	res, err := execute(w, r, spec)
	if err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	if len(res.Metrics) != len(list) {
		t.Errorf("%d metrics reported, %d described", len(res.Metrics), len(list))
	}
	for _, m := range list {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %q reported as %+v (present %v), described in %s", m.Name, v, ok, m.Unit)
		}
	}
	return res, r
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

func smokeInference() *inference { return &inference{model: nocbt.LeNet, fullTrace: true, inputs: 1} }

func TestSmoke(t *testing.T) {
	t.Run("inference/wrong-digest", func(t *testing.T) {
		t.Parallel()
		res, _ := runSmoke(t, smokeInference(), false, map[string]string{"1": "not-the-digest"})
		if res.Correct || res.Failed != 1 {
			t.Errorf("a wrong pinned digest should fail exactly one check: %+v", res)
		}
	})
	t.Run("inference/trace", func(t *testing.T) {
		t.Parallel()
		res, r := runSmoke(t, smokeInference(), true, nil)
		if !res.Correct {
			t.Errorf("failed checks: %+v", res)
		}
		for _, name := range []string{"noc.flit_hops", "noc.replay_ms", "l4.cycles", "l4.mac_cycles", "hw.link_pj",
			"sim.cycles_per_inference", "sim.bt_reduction_pct", "flit.roundtrip_us_per_task", "dnn.forward_ms"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
			}
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := r.writeTrace(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("Chrome trace does not load or is empty: %v", err)
		}
	})
	t.Run("serve/trace", func(t *testing.T) {
		t.Parallel()
		res, _ := runSmoke(t, &serving{fresh: 1}, true, nil)
		if !res.Correct {
			t.Errorf("failed checks: %+v", res)
		}
		for _, name := range []string{"serve.miss_ms_p50", "serve.hit_ms_p50", "serve.flush_ms_mean", "serve.batch_size_mean"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
			}
		}
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "all"},
		{"--workload", "darknet-4x4", "--trace", "2"},
		{"--workload", "darknet-4x4", "extra"},
		{"--workload", "darknet-4x4", "--vary-seeds"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
