// Command bench is the repository benchmark for the NoC-based DNN
// accelerator. One invocation runs one workload in this process — its
// set-up, a timed phase of --seconds, and the checks on every output — and
// prints the metrics BENCHMARK.json declares as the last line of standard
// output:
//
//	{"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes a Chrome trace of the benchmark's calls into each layer. With
// --runs N the command instead runs each selected workload N times in fresh
// child processes, on the one seed or, with --vary-seeds, on seeds
// seed..seed+N-1, and prints the median and quartiles of every metric. See
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runTimeout bounds one workload run, so a hung simulation still ends the
// process well inside the three minutes a run may take.
const runTimeout = 170 * time.Second

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceDir  string
	spec      string
	runs      int
	varySeeds bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload to run (all is accepted with --runs)")
	fs.Int64Var(&c.seed, "seed", 1, "seed every weight, input and request derives from")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the timed phase in seconds (BENCHMARK.json's run_seconds)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	fs.StringVar(&c.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced variant writes its Chrome trace to")
	fs.StringVar(&c.spec, "spec", "BENCHMARK.json", "benchmark description naming the workloads and metrics")
	fs.IntVar(&c.runs, "runs", 0, "run each workload this many times in fresh processes and summarize")
	fs.BoolVar(&c.varySeeds, "vary-seeds", false, "with --runs, give the runs seeds seed..seed+runs-1 instead of seed each")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case c.seconds < 0:
		return c, fmt.Errorf("--seconds must not be negative, got %v", c.seconds)
	case c.runs < 0:
		return c, fmt.Errorf("--runs must not be negative, got %d", c.runs)
	case c.workload == "":
		return c, fmt.Errorf("--workload is required")
	case c.workload == "all" && c.runs == 0:
		return c, fmt.Errorf("--workload all needs --runs")
	case c.varySeeds && c.runs == 0:
		return c, fmt.Errorf("--vary-seeds needs --runs")
	}
	c.trace = trace == 1
	return c, nil
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	spec, err := loadSpec(cfg.spec)
	if err != nil {
		return err
	}
	if cfg.runs > 0 {
		return runMany(cfg, spec, stdout, stderr)
	}
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	r := newRun(ctx, cfg, stderr)
	r.pins = pinnedDigests[cfg.workload]
	res, err := execute(w, r, spec)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := r.writeTrace(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. It is the single list of workloads and
// metrics: the program emits exactly the metrics it names, with its units.
// Every key is declared so that a misspelt one is rejected.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark description: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// metric returns the spec entry of a metric name.
func (s benchSpec) metric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// pinnedDigests holds, per workload and seed, the sha256 of the workload's
// outputs and simulated statistics (see each workload's digest). A run on a
// pinned seed whose digest differs counts a failed op.
//
//go:embed digests.json
var digestsJSON []byte

var pinnedDigests = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("bench: embedded digests.json: %v", err))
	}
	return m
}()

// summary is the --runs report of one workload.
type summary struct {
	Seeds   []int64                  `json:"seeds"`
	WallS   []float64                `json:"wall_s"` // each child's wall time
	Correct bool                     `json:"correct"`
	Digests map[string]string        `json:"digests"`
	Metrics map[string]metricSummary `json:"metrics"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/|median|
	Values []float64 `json:"values"`
}

// runMany runs every selected workload cfg.runs times, one fresh child
// process at a time, and prints the per-metric quartiles. On one seed the
// spread is the host's noise alone; with varySeeds it also holds the
// inputs' differences, as in the acceptance runs of a benchmark change.
func runMany(cfg config, spec benchSpec, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	out := make(map[string]summary)
	for _, name := range names {
		s := summary{Correct: true, Digests: map[string]string{}, Metrics: map[string]metricSummary{}}
		values := map[string][]float64{}
		for i := 0; i < cfg.runs; i++ {
			seed := cfg.seed
			if cfg.varySeeds {
				seed += int64(i)
			}
			trace := "0"
			if cfg.trace {
				trace = "1"
			}
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace,
				"--trace-dir", cfg.traceDir, "--spec", cfg.spec)
			var log bytes.Buffer
			cmd.Stderr = io.MultiWriter(stderr, &log)
			start := time.Now()
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			res, err := lastResult(b)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			s.Seeds = append(s.Seeds, seed)
			s.WallS = append(s.WallS, time.Since(start).Seconds())
			s.Correct = s.Correct && res.Correct
			if d := digestFrom(log.Bytes()); d != "" {
				s.Digests[strconv.FormatInt(seed, 10)] = d
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				ms := s.Metrics[k]
				ms.Unit = v.Unit
				s.Metrics[k] = ms
			}
		}
		for k, vs := range values {
			ms := s.Metrics[k]
			ms.Values = vs
			ms.Q1, ms.Median, ms.Q3 = quartiles(vs)
			if ms.Median != 0 {
				ms.Spread = (ms.Q3 - ms.Q1) / math.Abs(ms.Median)
			}
			s.Metrics[k] = ms
		}
		out[name] = s
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// lastResult parses the result line a workload run prints last.
func lastResult(stdout []byte) (result, error) {
	var res result
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	if res.Attempted < 1 {
		return res, errors.New("result reports no attempted op")
	}
	return res, nil
}

// digestFrom extracts the digest a run logs to standard error.
func digestFrom(log []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(log))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "bench:" && f[1] == "digest" {
			return f[2]
		}
	}
	return ""
}
