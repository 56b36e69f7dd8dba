package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nocbt/internal/accel"
	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/tensor"
)

// tinyWorkload builds a 5-layer model small enough that a full sweep of it
// finishes in milliseconds.
func tinyWorkload(name string) Workload {
	return Workload{
		Name: name,
		Build: func(seed int64, rng *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
			m := &dnn.Model{
				ModelName: "Tiny",
				InShape:   []int{1, 8, 8},
				Layers: []dnn.Layer{
					dnn.NewConv2D(1, 2, 3, 1, 0, rng),
					dnn.NewReLU(),
					dnn.NewMaxPool2(),
					dnn.NewFlatten(),
					dnn.NewLinear(2*3*3, 4, rng),
				},
			}
			in := tensor.New(1, 8, 8)
			for i := range in.Data {
				in.Data[i] = rng.Float32()*2 - 1
			}
			return m, in, nil
		},
	}
}

func tinyPlatform() Platform {
	return Platform{
		Name: "2x2 MC1",
		Build: func(g flit.Geometry) accel.Config {
			return accel.Config{
				Mesh:     noc.Config{Width: 2, Height: 2, VCs: 4, BufDepth: 4, LinkBits: g.LinkBits},
				Geometry: g,
				MCs:      []int{0},
			}
		},
	}
}

// paperFloat32 and paperFixed8 are the paper's two flit geometries: 16
// float-32 lanes on a 512-bit link and 16 fixed-8 lanes on a 128-bit link.
var (
	paperFloat32 = flit.Geometry{LinkBits: 512, Format: bitutil.Float32}
	paperFixed8  = flit.Geometry{LinkBits: 128, Format: bitutil.Fixed8}
)

func tinySpec() Spec {
	return Spec{
		Platforms:  []Platform{tinyPlatform()},
		Geometries: []flit.Geometry{paperFixed8, paperFloat32},
		Orderings:  flit.Orderings(),
		Workloads:  []Workload{tinyWorkload("tiny")},
		Seeds:      []int64{1, 2},
	}
}

func TestJobsExpansionOrder(t *testing.T) {
	spec := tinySpec()
	jobs := spec.Jobs()
	want := len(spec.Seeds) * len(spec.Workloads) * len(spec.Geometries) *
		len(spec.Platforms) * len(spec.Orderings)
	if len(jobs) != want {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d carries index %d", i, j.Index)
		}
	}
	// Orderings innermost, then platforms, then geometries, then seeds.
	if jobs[0].Ordering != flit.Baseline || jobs[1].Ordering != flit.Affiliated ||
		jobs[2].Ordering != flit.Separated {
		t.Error("orderings are not the innermost axis")
	}
	if jobs[0].Geometry != paperFixed8 || jobs[3].Geometry != paperFloat32 {
		t.Error("geometries do not advance after one platform's orderings")
	}
	if jobs[0].Seed != 1 || jobs[len(jobs)-1].Seed != 2 {
		t.Error("seeds are not the outermost axis")
	}
}

func TestValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err == nil {
		t.Error("empty spec validated")
	}
	spec := tinySpec()
	spec.Workloads = append(spec.Workloads, tinyWorkload("tiny"))
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate workload name not rejected: %v", err)
	}
	spec = tinySpec()
	spec.Workloads = []Workload{{Name: "nobuild"}}
	if err := spec.Validate(); err == nil {
		t.Error("nil Build not rejected")
	}
	spec = tinySpec()
	spec.Platforms = []Platform{{Name: "nobuild"}}
	if err := spec.Validate(); err == nil {
		t.Error("nil platform Build not rejected")
	}
	spec = tinySpec()
	spec.Platforms = append(spec.Platforms, tinyPlatform())
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate platform") {
		t.Errorf("duplicate platform name not rejected: %v", err)
	}
}

// TestRunDeterministicAcrossWorkerCounts is the package-level determinism
// contract: the same spec yields bit-identical results on 1 worker and on
// many.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := tinySpec()
	serial.Workers = 1
	a, err := Run(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	concurrent := tinySpec()
	concurrent.Workers = 7
	b, err := Run(context.Background(), concurrent)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across worker counts:\n1 worker: %+v\n7 workers: %+v", a, b)
	}
	for _, r := range a {
		if r.TotalBT <= 0 || r.Cycles <= 0 || r.Packets <= 0 {
			t.Errorf("degenerate result %+v", r)
		}
	}
}

func TestWorkloadBuiltOncePerSeed(t *testing.T) {
	var builds atomic.Int64
	spec := tinySpec()
	inner := spec.Workloads[0].Build
	spec.Workloads = []Workload{{
		Name: "counted",
		Build: func(seed int64, rng *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
			builds.Add(1)
			return inner(seed, rng)
		},
	}}
	spec.Workers = 4
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != int64(len(spec.Seeds)) {
		t.Errorf("workload built %d times for %d seeds", got, len(spec.Seeds))
	}
}

func TestReductionPct(t *testing.T) {
	spec := tinySpec()
	spec.Seeds = []int64{1}
	results, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Groups are contiguous runs of len(Orderings).
	for i := 0; i < len(results); i += 3 {
		base := results[i]
		if base.Ordering != flit.Baseline || base.ReductionPct != 0 {
			t.Fatalf("group %d does not start with a zero-reduction baseline: %+v", i, base)
		}
		for _, r := range results[i+1 : i+3] {
			want := 100 * (1 - float64(r.TotalBT)/float64(base.TotalBT))
			if r.ReductionPct != want {
				t.Errorf("%s/%s reduction %v, want %v", r.Geometry.Format, r.Ordering, r.ReductionPct, want)
			}
		}
	}
}

func TestReductionPctWithoutBaseline(t *testing.T) {
	spec := tinySpec()
	spec.Seeds = []int64{1}
	spec.Orderings = []flit.Ordering{flit.Separated}
	results, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.ReductionPct != 0 {
			t.Errorf("reduction %v without a baseline in the sweep", r.ReductionPct)
		}
	}
}

func TestRunPropagatesBuildError(t *testing.T) {
	boom := errors.New("boom")
	spec := tinySpec()
	spec.Workloads = []Workload{{
		Name: "broken",
		Build: func(int64, *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
			return nil, nil, boom
		},
	}}
	_, err := Run(context.Background(), spec)
	if !errors.Is(err, boom) {
		t.Fatalf("build error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the failing job", err)
	}
}

// TestRunAbortsQueuedJobsAfterError pins the abort contract: once a job
// fails, still-queued jobs are skipped instead of burning the rest of the
// grid.
func TestRunAbortsQueuedJobsAfterError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	spec := tinySpec()
	spec.Workers = 1 // serial queue: job 0 fails, jobs 1..n must be skipped
	spec.Workloads = []Workload{{
		Name: "failfast",
		Build: func(int64, *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
			ran.Add(1)
			return nil, nil, boom
		},
	}}
	if _, err := Run(context.Background(), spec); !errors.Is(err, boom) {
		t.Fatalf("build error not propagated: %v", err)
	}
	// Build is memoized per seed, so even without the abort it could run at
	// most len(Seeds) times; the abort must cut it to exactly one.
	if got := ran.Load(); got != 1 {
		t.Errorf("workload built %d times after a failing first job, want 1", got)
	}
}

// TestBatchAxis runs the same grid point at batch sizes 1, 2 and 4 and
// checks the batch rows' invariants: batch recorded, traffic scaling with
// batch size, throughput above the serial run's, and reduction groups split
// per batch size (an O2 batch-4 row reduces against the O0 batch-4 row, not
// the serial baseline).
func TestBatchAxis(t *testing.T) {
	spec := Spec{
		Platforms:  []Platform{tinyPlatform()},
		Geometries: []flit.Geometry{paperFixed8},
		Orderings:  flit.Orderings(),
		Workloads:  []Workload{tinyWorkload("tiny")},
		Seeds:      []int64{1},
		Batches:    []int{1, 2, 4},
	}
	results, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3*len(flit.Orderings()) {
		t.Fatalf("got %d rows, want %d", len(results), 3*len(flit.Orderings()))
	}
	byBatch := map[int][]Result{}
	for _, r := range results {
		byBatch[r.Batch] = append(byBatch[r.Batch], r)
	}
	for _, b := range []int{1, 2, 4} {
		rows := byBatch[b]
		if len(rows) != len(flit.Orderings()) {
			t.Fatalf("batch %d has %d rows", b, len(rows))
		}
		base := rows[0]
		if base.Ordering != flit.Baseline || base.ReductionPct != 0 {
			t.Errorf("batch %d baseline row malformed: %+v", b, base)
		}
		for _, r := range rows {
			if r.Throughput <= 0 || r.AvgLatencyCycles <= 0 {
				t.Errorf("batch %d row missing throughput/latency: %+v", b, r)
			}
			// Packet counts scale exactly linearly with batch size.
			if r.Packets != byBatch[1][0].Packets*int64(b) {
				t.Errorf("batch %d packets %d, want %d", b, r.Packets, byBatch[1][0].Packets*int64(b))
			}
		}
		if b > 1 {
			// Sharing the mesh must not be slower than serial execution.
			if rows[0].Cycles >= byBatch[1][0].Cycles*int64(b) {
				t.Errorf("batch %d cycles %d not below %d serial cycles",
					b, rows[0].Cycles, byBatch[1][0].Cycles*int64(b))
			}
		}
	}
	// Ordering still reduces BT under batched traffic.
	for _, b := range []int{2, 4} {
		rows := byBatch[b]
		if !(rows[2].TotalBT < rows[0].TotalBT) {
			t.Errorf("batch %d: O2 BT %d not below O0 BT %d", b, rows[2].TotalBT, rows[0].TotalBT)
		}
		if rows[2].ReductionPct <= 0 {
			t.Errorf("batch %d: O2 reduction %.2f%% not positive", b, rows[2].ReductionPct)
		}
	}
}

// TestRunCancelledContext proves a pre-cancelled context aborts the sweep
// before any job runs and surfaces ctx.Err().
func TestRunCancelledContext(t *testing.T) {
	var ran atomic.Int64
	spec := tinySpec()
	inner := spec.Workloads[0].Build
	spec.Workloads = []Workload{{
		Name: "counted",
		Build: func(seed int64, rng *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
			ran.Add(1)
			return inner(seed, rng)
		},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d workloads built under a pre-cancelled context", got)
	}
}

// TestRunCancelMidSweep cancels from another goroutine once the first job
// reports in and requires Run to return ctx.Err() without burning the rest
// of the grid. The grid lists several codings, so each unit of work is a
// sweep group.
func TestRunCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	var ran atomic.Int64
	spec := tinySpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	spec.Codings = []string{"none", "gray", "businvert"}
	spec.Workers = 1 // deterministic: groups run one at a time off the queue
	inner := spec.Workloads[0].Build
	spec.Workloads = []Workload{{
		Name: "signal",
		Build: func(seed int64, rng *rand.Rand) (*dnn.Model, *tensor.Tensor, error) {
			ran.Add(1)
			once.Do(func() { close(started) })
			// Hold the first materialization until the cancel has landed:
			// on a loaded machine the canceling goroutine could otherwise
			// lose the race against the whole (tiny) grid completing.
			<-ctx.Done()
			return inner(seed, rng)
		},
	}}
	go func() {
		<-started
		cancel()
	}()
	if _, err := Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel returned %v, want context.Canceled", err)
	}
	// The cancel is visible before the first build returns, so every later
	// seed must be skipped.
	if got := ran.Load(); got != 1 {
		t.Errorf("%d workloads built despite mid-sweep cancel, want 1", got)
	}
}

// TestBatchValidation rejects non-positive batch sizes.
func TestBatchValidation(t *testing.T) {
	spec := tinySpec()
	spec.Batches = []int{0}
	if _, err := Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "batch size") {
		t.Errorf("batch size 0 not rejected: %v", err)
	}
}

// codedTinyPlatform is tinyPlatform with its own LinkCoding baked in, the
// WithLinkCoding shape at the public layer.
func codedTinyPlatform(coding string) Platform {
	base := tinyPlatform()
	return Platform{
		Name: base.Name,
		Build: func(g flit.Geometry) accel.Config {
			cfg := base.Build(g)
			cfg.LinkCoding = coding
			return cfg
		},
	}
}

// TestEmptyCodingsAxisKeepsPlatformCoding is the regression for the
// stomped-knob bug: a sweep whose Codings axis is empty must run each
// platform with its own configured LinkCoding — and label the row with
// the effective coding — not silently reset it to plain binary.
func TestEmptyCodingsAxisKeepsPlatformCoding(t *testing.T) {
	run := func(platform Platform, codings []string) Result {
		t.Helper()
		spec := Spec{
			Platforms:  []Platform{platform},
			Geometries: []flit.Geometry{paperFixed8},
			Orderings:  []flit.Ordering{flit.Baseline},
			Workloads:  []Workload{tinyWorkload("tiny")},
			Seeds:      []int64{1},
			Codings:    codings,
			Workers:    1,
		}
		results, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}

	plain := run(tinyPlatform(), nil)
	kept := run(codedTinyPlatform("businvert"), nil)
	if kept.Coding != "businvert" {
		t.Errorf("empty axis row labeled %q, want the platform's businvert", kept.Coding)
	}
	if kept.TotalBT == plain.TotalBT {
		t.Errorf("platform's businvert coding was not applied: BT %d equals the uncoded run", kept.TotalBT)
	}

	// A listed "none" overrides the platform's coding (that is what the
	// axis is for) and must reproduce the plain measurement.
	forced := run(codedTinyPlatform("businvert"), []string{"none"})
	if forced.Coding != "none" || forced.TotalBT != plain.TotalBT {
		t.Errorf("forced none = %q/BT %d, want none/%d", forced.Coding, forced.TotalBT, plain.TotalBT)
	}

	// Spelling never splits behavior or labels: "GRAY" runs as gray.
	spelled := run(tinyPlatform(), []string{"GRAY"})
	if spelled.Coding != "gray" {
		t.Errorf("GRAY row labeled %q, want canonical gray", spelled.Coding)
	}
}

// perJobRun measures every job of the spec on an engine of its own, with
// the job's coding as the engine's LinkCoding, and fills reductions as Run
// does: the reference a sweep group's shared simulation must reproduce.
func perJobRun(t *testing.T, spec Spec) []Result {
	t.Helper()
	r := &runner{workloads: make(map[workloadKey]*workloadEntry)}
	jobs := spec.Jobs()
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	for _, j := range jobs {
		if !r.runGroup(context.Background(), []Job{j}, results, errs) {
			t.Fatalf("job %s: %v", j.Name(), errs[j.Index])
		}
	}
	fillReductions(results)
	return results
}

// TestCodingGroupsMatchPerJobEngines is the equivalence contract of coding
// groups: on a gray-coded platform, every registered ordering × codings
// {"", none, gray, businvert} × topologies × batches × precisions grid
// comes out of the grouped runner exactly as if each job had its own
// engine, on one worker and on four.
func TestCodingGroupsMatchPerJobEngines(t *testing.T) {
	spec := Spec{
		Platforms:  []Platform{codedTinyPlatform("gray")},
		Geometries: []flit.Geometry{paperFixed8},
		Orderings:  flit.Orderings(),
		Workloads:  []Workload{tinyWorkload("tiny")},
		Seeds:      []int64{1},
		Codings:    []string{"", "none", "gray", "businvert"},
		Topologies: []string{"mesh", "torus"},
		Batches:    []int{1, 2},
		Precisions: []int{0, 4},
	}
	want := perJobRun(t, spec)
	if groups := codingGroups(spec.Jobs()); len(groups)*len(spec.Codings)*len(spec.Orderings) != len(want) {
		t.Fatalf("%d sweep groups for %d jobs of %d codings and %d orderings", len(groups), len(want), len(spec.Codings), len(spec.Orderings))
	}
	for i := 0; i < len(want); i += len(spec.Orderings) * len(spec.Codings) {
		// Rows of one (ordering, coding) block: the platform's own gray,
		// none, gray, businvert. Distinct codings must count differently,
		// or this comparison could not catch a coding mix-up.
		own, none, gray, bi := want[i], want[i+len(spec.Orderings)], want[i+2*len(spec.Orderings)], want[i+3*len(spec.Orderings)]
		if own.Coding != "gray" || own.TotalBT != gray.TotalBT {
			t.Errorf("empty coding row %+v is not the platform's gray %+v", own, gray)
		}
		if none.TotalBT == gray.TotalBT || none.TotalBT == bi.TotalBT || gray.TotalBT == bi.TotalBT {
			t.Errorf("codings count the same BT: none %d, gray %d, businvert %d", none.TotalBT, gray.TotalBT, bi.TotalBT)
		}
	}
	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%d workers, job %d:\ngrouped %+v\nper-job %+v", workers, i, got[i], want[i])
				}
			}
		}
	}
}

// rejectScheme is a link coding whose New refuses every link width.
type rejectScheme struct{}

func (rejectScheme) Name() string       { return "sweep-test-reject" }
func (rejectScheme) ExtraLines(int) int { return 0 }
func (rejectScheme) New(width int) (flit.LinkCoding, error) {
	return nil, fmt.Errorf("no %d-bit coder", width)
}

var registerReject sync.Once

// TestCodingGroupRejectedWidth: a coding whose New rejects the link width
// fails the sweep naming that coding's first job, with the simulator's
// install error, whether it is a group's own coding or a counted one.
func TestCodingGroupRejectedWidth(t *testing.T) {
	registerReject.Do(func() { flit.MustRegisterLinkCoding(rejectScheme{}) })
	for _, codings := range [][]string{
		{"gray", "sweep-test-reject", "none"},
		{"sweep-test-reject", "gray"},
	} {
		spec := tinySpec()
		spec.Seeds = []int64{1}
		spec.Codings = codings
		spec.Workers = 1
		var job Job
		for _, j := range spec.Jobs() {
			if j.Coding == "sweep-test-reject" {
				job = j
				break
			}
		}
		_, err := Run(context.Background(), spec)
		prefix := "sweep: job " + job.Name() + `: noc: link coding "sweep-test-reject" on link `
		if err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("codings %v: error %v, want prefix %q", codings, err, prefix)
		}
	}
}
