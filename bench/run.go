package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"nocbt/internal/obs"
)

// A workload is one set of inputs the benchmark runs. Its set-up is
// repeated (see execute) and must leave the state of repetition 0 in place
// for the timed phase; measure runs the timed phase and reports every op
// through run.opDone; finish checks the run as a whole — the pinned digest
// and cross-op invariants — and, on traced runs, measures the per-layer
// metrics.
type workload interface {
	setUp(r *run, rep int) error
	measure(r *run) []sample
	finish(r *run) error
	close()
}

// sample is one timed op: its wall time and whether the benchmark's own
// spans were recorded around it.
type sample struct {
	ms     float64
	traced bool
}

// Set-up repeats while the repetitions so far took less than repBudget, at
// most maxSetupReps times, and setup_s reports the median repetition. The
// traced run's inference probes repeat their rounds up to probeReps times
// while the rounds so far took less than probeBudget.
const (
	repBudget    = 3 * time.Second
	maxSetupReps = 5
	probeBudget  = 10 * time.Second
	probeReps    = 5
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is the state of one workload run shared by the workload and
// execute. Workload goroutines may call its methods concurrently.
type run struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	trace   bool
	log     io.Writer
	// pins maps a seed (decimal) to the digest pinned for it.
	pins map[string]string
	// repBudget, probeBudget and probeReps size the set-up repetitions
	// and the repeated per-layer probes; the smoke test shrinks them.
	repBudget   time.Duration
	probeBudget time.Duration
	probeReps   int

	// spans records the benchmark's calls into each layer as wall-clock
	// spans; nil on untraced runs.
	spans *obs.Tracer

	mu        sync.Mutex
	values    map[string]value
	layerMS   map[string][]float64
	attempted int
	failed    int
}

func newRun(ctx context.Context, cfg config, log io.Writer) *run {
	r := &run{
		ctx:         ctx,
		seed:        cfg.seed,
		seconds:     time.Duration(cfg.seconds * float64(time.Second)),
		trace:       cfg.trace,
		log:         log,
		repBudget:   repBudget,
		probeBudget: probeBudget,
		probeReps:   probeReps,
		values:      map[string]value{},
		layerMS:     map[string][]float64{},
	}
	if cfg.trace {
		r.spans = obs.NewTracer(0)
	}
	return r
}

// set records a metric value.
func (r *run) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.values[name] = value{Value: v, Unit: unit}
	r.mu.Unlock()
}

// opDone counts one attempted op, failed when err is non-nil.
func (r *run) opDone(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
	}
	r.mu.Unlock()
	if err != nil {
		fmt.Fprintln(r.log, "bench: FAIL", err)
	}
}

// call times fn as one call into a layer and, when traced is set on a
// traced run, records it as a wall-clock span on track tid. The duration is
// kept per layer name for the per-layer medians.
func (r *run) call(layer string, tid int64, traced bool, fn func() error) error {
	var t *obs.Tracer
	if traced {
		t = r.spans
	}
	sp := t.Begin(layer, "bench", 1, tid, t.Ticks())
	start := time.Now()
	err := fn()
	d := msSince(start)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	t.End(sp, t.Ticks())
	r.mu.Lock()
	r.layerMS[layer] = append(r.layerMS[layer], d)
	r.mu.Unlock()
	return err
}

// layerP50 returns the median duration of a layer's calls in ms.
func (r *run) layerP50(layer string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.layerMS[layer])
}

// tracedOp reports whether sequential timed op i records the benchmark's
// spans. Traced runs alternate blocks of four ops, so the traced and
// untraced halves hold the same mix of inputs and their difference is the
// spans' own overhead.
func (r *run) tracedOp(i int) bool { return r.trace && i/4%2 == 1 }

// loop runs op sequentially until the timed phase has lasted r.seconds and
// at least minOps ops ran.
func (r *run) loop(minOps int, op func(i int, traced bool) error) []sample {
	var out []sample
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < r.seconds; i++ {
		traced := r.tracedOp(i)
		t := time.Now()
		err := op(i, traced)
		out = append(out, sample{ms: msSince(t), traced: traced})
		r.opDone(err)
	}
	return out
}

// checkDigest logs the run's digest and fails a check when the seed has a
// pinned digest that differs.
func (r *run) checkDigest(digest string) {
	fmt.Fprintln(r.log, "bench: digest", digest)
	want, ok := r.pins[fmt.Sprint(r.seed)]
	if ok && want != digest {
		r.opDone(fmt.Errorf("digest %s differs from the one pinned for seed %d (%s)", digest, r.seed, want))
	}
}

// execute runs the workload: repeated set-up, the timed phase, finish, and
// the process-wide metrics. It returns an error only when the workload
// cannot run at all; failed checks are counted in the result.
func execute(w workload, r *run, spec benchSpec) (result, error) {
	defer w.close()
	var setups []float64
	var spent time.Duration
	for rep := 0; rep < maxSetupReps && (rep == 0 || spent < r.repBudget); rep++ {
		start := time.Now()
		if err := r.call("setup", 0, r.trace, func() error { return w.setUp(r, rep) }); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups), "s")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples := w.measure(r)
	runtime.ReadMemStats(&after)
	if len(samples) == 0 {
		return result{}, fmt.Errorf("timed phase ran no op")
	}
	var all, traced, untraced []float64
	for _, s := range samples {
		all = append(all, s.ms)
		if s.traced {
			traced = append(traced, s.ms)
		} else {
			untraced = append(untraced, s.ms)
		}
	}
	ops := float64(len(samples))
	r.set("op_ms_p50", median(all), "ms")
	r.set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, "count")
	r.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops/1e6, "MB")
	if len(traced) > 0 && len(untraced) > 0 {
		r.set("bench.trace_overhead_pct", pctOver(median(traced), median(untraced)), "%")
	}
	// Read before finish, whose traced-run probes hold whole engine traces.
	r.set("runtime.peak_rss_mb", peakRSSMB(), "MB")

	if err := w.finish(r); err != nil {
		return result{}, err
	}
	r.set("runtime.gc_cpu_pct", gcCPUPct(), "%")
	return r.result(spec)
}

// result assembles the printed line: every end-to-end metric on untraced
// runs, every per-layer metric on traced ones. A per-layer metric of a layer
// the workload does not exercise reads 0.
func (r *run) result(spec benchSpec) (result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.values {
		m, ok := spec.metric(name)
		if !ok {
			return result{}, fmt.Errorf("measured metric %q is not in the benchmark description", name)
		}
		if m.Unit != v.Unit {
			return result{}, fmt.Errorf("metric %q measured in %s, described in %s", name, v.Unit, m.Unit)
		}
	}
	list := spec.EndToEnd
	if r.trace {
		list = spec.PerLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !r.trace {
			return result{}, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		if !ok {
			v = value{Unit: m.Unit}
		}
		res.Metrics[m.Name] = v
	}
	return res, nil
}

// writeTrace exports the benchmark's spans as Chrome trace-event JSON.
func (r *run) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.spans.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// pctOver returns how much larger a is than b, in percent of b.
func pctOver(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the middle two for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // ru_maxrss is in KiB on Linux
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUPct returns the share of the process's CPU time the garbage
// collector took, as the runtime estimates it.
func gcCPUPct() float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 || s[1].Value.Float64() == 0 {
		return 0
	}
	return 100 * s[0].Value.Float64() / s[1].Value.Float64()
}
