package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"nocbt/internal/accel"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/obs"
	"nocbt/internal/stats"
	"nocbt/internal/tensor"
)

// workloadKey identifies one materialized (workload, seed) pair.
type workloadKey struct {
	name string
	seed int64
}

// workloadEntry memoizes one Build call. The sync.Once lets every job that
// needs the pair block on a single materialization instead of serializing
// the whole sweep behind one lock or training the same model per job.
type workloadEntry struct {
	once  sync.Once
	model *dnn.Model
	input *tensor.Tensor
	err   error
}

// runner carries the per-sweep state: the spec and the materialized
// workload cache.
type runner struct {
	mu        sync.Mutex
	workloads map[workloadKey]*workloadEntry
}

// Run executes every job of the spec and returns one Result per job in
// expansion order. Jobs that differ only in their coding form a coding
// group (see codingGroups); each group is one engine and one simulation on
// a bounded worker pool. A job error aborts the sweep: already-running
// groups finish, still-queued groups are skipped, and the lowest-index
// error that was actually recorded is returned. Cancelling the context
// aborts the sweep promptly — workers stop picking up groups, in-flight
// inferences bail between simulator cycles, and Run returns ctx.Err().
func Run(ctx context.Context, spec Spec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs := spec.Jobs()
	groups := codingGroups(jobs)
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	r := &runner{workloads: make(map[workloadKey]*workloadEntry)}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	ch := make(chan []Job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range ch {
				if failed.Load() || ctx.Err() != nil {
					continue // drain the queue without running
				}
				if !r.runGroup(ctx, group, results, errs) {
					failed.Store(true)
				}
			}
		}()
	}
	for _, group := range groups {
		ch <- group
	}
	close(ch)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// A cancelled sweep has no complete result set; report the
		// cancellation itself rather than whichever job saw it first.
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: job %s: %w", jobs[i].Name(), err)
		}
	}
	fillReductions(results)
	return results, nil
}

// codingGroups splits the jobs into coding groups: jobs equal in every
// coordinate but Coding, each group in expansion order and the groups in
// the order of their first jobs. A link coding changes only how the
// wires' toggles are counted, never a packet, a cycle or an output, so a
// group needs one simulation however many codings it lists.
func codingGroups(jobs []Job) [][]Job {
	type key struct {
		seed      int64
		batch     int
		workload  string
		geometry  flit.Geometry
		precision int
		platform  string
		topology  string
		ordering  flit.Ordering
	}
	index := make(map[key]int)
	var groups [][]Job
	for _, j := range jobs {
		k := key{j.Seed, j.Batch, j.Workload.Name, j.Geometry, j.Precision, j.Platform.Name, j.Topology, j.Ordering}
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], j)
	}
	return groups
}

// workload returns the memoized materialization for the job's (workload,
// seed) pair, building it on first use. The Build rng is created here, one
// per materialization, seeded from the spec seed — results cannot depend on
// which worker gets here first.
func (r *runner) workload(w Workload, seed int64) *workloadEntry {
	key := workloadKey{name: w.Name, seed: seed}
	r.mu.Lock()
	e, ok := r.workloads[key]
	if !ok {
		e = &workloadEntry{}
		r.workloads[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.model, e.input, e.err = w.Build(seed, rand.New(rand.NewSource(seed)))
		if e.err == nil && (e.model == nil || e.input == nil) {
			e.err = fmt.Errorf("workload %q returned nil model or input", w.Name)
		}
	})
	return e
}

// runGroup measures one coding group on one engine and writes each job's
// Result, or its error, at the job's index; it reports whether every job
// succeeded. The group's first job sets the engine's own LinkCoding; every
// other coding is counted on the same link crossings (Engine.CountCodings),
// so a job's Result is the group's with its own Coding and TotalBT. Each
// group infers on its own clone of the shared model.
func (r *runner) runGroup(ctx context.Context, group []Job, results []Result, errs []error) bool {
	job := group[0]
	fail := func(j Job, err error) bool {
		errs[j.Index] = err
		return false
	}
	entry := r.workload(job.Workload, job.Seed)
	if entry.err != nil {
		return fail(job, entry.err)
	}
	cfg := job.Platform.Build(job.Geometry)
	cfg.Ordering = job.Ordering
	if job.Precision > 0 && cfg.Geometry.Format.IsFixed() {
		// A uniform lane-width override: every NoC layer flitizes at this
		// width. Non-fixed geometries skip the axis (precision stays in the
		// row label, the engine keeps the geometry's own format).
		cfg.Precisions = []int{job.Precision}
	}
	if job.Topology != "" {
		// A listed topology — "mesh" included — overrides the platform's
		// own interconnect; an empty axis value keeps it.
		cfg.Mesh.Topology = job.Topology
	}
	// A listed coding — "none" included — overrides the platform's own
	// LinkCoding; an empty axis value keeps it.
	codings := make([]string, len(group))
	for k, j := range group {
		coding := cfg.LinkCoding
		if j.Coding != "" {
			coding = j.Coding
		}
		canonical, ok := flit.CanonicalLinkCodingName(coding)
		if !ok {
			return fail(j, fmt.Errorf("unknown link coding %q", coding))
		}
		codings[k] = canonical
	}
	cfg.LinkCoding = codings[0]
	// counted[k] is the CountCodings index of job k's coding, or -1 when it
	// is the engine's own; a coding that cannot be counted fails the first
	// job that lists it.
	counted := make([]int, len(group))
	failed := job
	countCodings := func(eng *accel.Engine) error {
		installed := map[string]int{codings[0]: -1}
		for k, coding := range codings {
			i, ok := installed[coding]
			if !ok {
				if err := eng.CountCodings(coding); err != nil {
					failed = group[k]
					return err
				}
				i = len(installed) - 1
				installed[coding] = i
			}
			counted[k] = i
		}
		return nil
	}
	res, eng, err := Measure(ctx, job.Platform.Name, cfg, entry.model.CloneForInference(), entry.input, job.Batch, countCodings)
	if err != nil {
		return fail(failed, err)
	}
	res.Workload = job.Workload.Name
	res.Geometry = job.Geometry
	res.Seed = job.Seed
	res.Precision = job.Precision
	for k, j := range group {
		res.Coding = codingName(codings[k])
		res.TotalBT = eng.TotalBT()
		if counted[k] >= 0 {
			res.TotalBT = eng.CodedBT(counted[k])
		}
		results[j.Index] = res
	}
	return true
}

// Measure runs one measurement of model on cfg and returns its row with
// the engine that ran it. Batch 1 is one Engine.Infer; a larger batch runs
// Engine.InferRepeated under PipelinedLayers, so the batch's inferences
// share the mesh, which the paper-faithful SerialLayers default would
// reduce to scaled serial runs. The row carries the canonical topology,
// the display coding, every traffic and energy counter, throughput and
// latency; the grid coordinates Workload, Seed and Precision are left to
// the caller. Measure installs the context's span tracer on the engine,
// and prepare, when non-nil, runs on the engine before inference.
func Measure(ctx context.Context, platform string, cfg accel.Config, model *dnn.Model, input *tensor.Tensor,
	batch int, prepare func(*accel.Engine) error) (Result, *accel.Engine, error) {
	if batch < 1 {
		return Result{}, nil, fmt.Errorf("batch size %d < 1", batch)
	}
	if canonical, ok := flit.CanonicalLinkCodingName(cfg.LinkCoding); ok {
		cfg.LinkCoding = canonical
	}
	if batch > 1 {
		cfg.LayerMode = accel.PipelinedLayers
	}
	eng, err := accel.New(cfg, model)
	if err != nil {
		return Result{}, nil, err
	}
	if prepare != nil {
		if err := prepare(eng); err != nil {
			return Result{}, nil, err
		}
	}
	if t := obs.FromContext(ctx); t != nil {
		eng.SetSpanTracer(t)
	}
	topology, _ := noc.CanonicalTopologyName(cfg.Mesh.Topology)
	res := Result{
		Platform: platform,
		Model:    model.Name(),
		Geometry: cfg.Geometry,
		Ordering: cfg.Ordering,
		Coding:   codingName(cfg.LinkCoding),
		Topology: topology,
		Batch:    batch,
	}
	if batch == 1 {
		if _, err := eng.Infer(ctx, input); err != nil {
			return Result{}, nil, err
		}
		if c := eng.Cycles(); c > 0 {
			res.Throughput = 1000 / float64(c)
			res.AvgLatencyCycles = float64(c)
		}
	} else {
		if _, err := eng.InferRepeated(ctx, input, batch); err != nil {
			return Result{}, nil, err
		}
		st := eng.LastBatchStats()
		res.Throughput = st.Throughput()
		res.AvgLatencyCycles = st.AvgLatencyCycles
	}
	res.TotalBT = eng.TotalBT()
	res.Cycles = eng.Cycles()
	res.Packets = eng.TaskPackets() + eng.ResultPackets()
	res.Flits = eng.TotalFlits()
	res.RouterFlits = eng.NoCStats().RouterFlits
	ec := eng.EnergyCounters()
	res.MACBitOps = ec.MACBitOps
	res.WeightRegBits = ec.WeightRegBits
	res.FlitBits = ec.FlitBits
	return res, eng, nil
}

// codingName maps a canonical coding name onto its display name: the
// empty string (uncoded) renders as "none" so rows stay self-describing.
func codingName(c string) string {
	if c == "" {
		return "none"
	}
	return c
}

// groupKey identifies a reduction group: one job minus its ordering. The
// coding is part of the group, so a coded sweep's reductions compare each
// ordering against the Baseline run under the same coding.
type groupKey struct {
	platform  string
	workload  string
	geometry  flit.Geometry
	coding    string
	topology  string
	seed      int64
	batch     int
	precision int
}

func (res Result) group() groupKey {
	return groupKey{
		platform:  res.Platform,
		workload:  res.Workload,
		geometry:  res.Geometry,
		coding:    res.Coding,
		topology:  res.Topology,
		seed:      res.Seed,
		batch:     res.Batch,
		precision: res.Precision,
	}
}

// fillReductions computes each result's BT reduction relative to its
// group's Baseline run, matching the serial experiment arithmetic. Groups
// swept without a Baseline ordering keep ReductionPct == 0.
func fillReductions(results []Result) {
	baselines := make(map[groupKey]float64)
	for _, res := range results {
		if res.Ordering == flit.Baseline {
			baselines[res.group()] = float64(res.TotalBT)
		}
	}
	for i := range results {
		base, ok := baselines[results[i].group()]
		if !ok {
			continue
		}
		results[i].ReductionPct = 100 * stats.ReductionRate(base, float64(results[i].TotalBT))
	}
}
