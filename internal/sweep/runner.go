package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

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

// groupsPerCore bounds how many sweep groups Run starts at once when
// Spec.Workers is 0: groupsPerCore·GOMAXPROCS, time-sliced by the Go
// scheduler. Groups differ in cost (a topology-grid mesh group takes
// about 40% longer than a cmesh one) and a grid often has only a few, so
// queuing them behind one worker per core leaves cores idle while the
// last groups run.
// The bound keeps a large grid (btexp -run sweep over many seeds or
// platforms) from holding every group's engine and model clone at once.
const groupsPerCore = 2

// Run executes every job of the spec and returns one Result per job in
// expansion order. Jobs that differ only in their coding, and in their
// ordering where orderings cannot change the traffic, form a sweep group
// (see codingGroups); each group is one engine and one simulation. Up to
// Spec.Workers groups run at once, or with Workers 0 up to
// groupsPerCore·GOMAXPROCS, and never more than there are groups. A job
// error aborts the sweep: it cancels the groups in flight, which stop at
// their next context poll, still-queued groups are skipped, and Run
// returns the lowest-index job error that is not such a cancellation.
// Cancelling the caller's context aborts the sweep the same way, and Run
// returns ctx.Err().
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
		workers = groupsPerCore * runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(groups))

	// The first failing group cancels runCtx, so the groups in flight stop
	// instead of finishing rows the sweep will discard.
	runCtx, abort := context.WithCancel(ctx)
	defer abort()
	r := &runner{workloads: make(map[workloadKey]*workloadEntry)}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	ch := make(chan []Job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range ch {
				if runCtx.Err() != nil {
					continue // drain the queue without running
				}
				if !r.runGroup(runCtx, group, results, errs) {
					abort()
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
	// With the caller's context live, a cancellation is the abort's echo
	// in a group that was in flight: report the lowest-index other error,
	// and a cancellation only when no group failed otherwise.
	fault := -1
	for i, err := range errs {
		if err != nil && (fault < 0 || errors.Is(errs[fault], context.Canceled) && !errors.Is(err, context.Canceled)) {
			fault = i
		}
	}
	if fault >= 0 {
		return nil, fmt.Errorf("sweep: job %s: %w", jobs[fault].Name(), errs[fault])
	}
	fillReductions(results)
	return results, nil
}

// codingGroups splits the jobs into sweep groups: jobs equal in every
// coordinate but Coding and, where the orderings cannot change the
// traffic, Ordering; each group in expansion order and the groups in the
// order of their first jobs. A link coding changes only how the wires'
// toggles are counted, never a packet, a cycle or an output. An ordering
// permutes values inside a packet and never changes its length, route or
// timing, so where every layer is fixed-point (the PE's exact integer MAC
// then gives every ordering the same partial sums) and no index flits
// travel in band, it changes only the bits on the wires too. A group
// therefore needs one simulation however many codings and orderings it
// lists; float geometries and in-band-index platforms keep one group per
// ordering.
func codingGroups(jobs []Job) [][]Job {
	type key struct {
		seed      int64
		batch     int
		workload  string
		geometry  flit.Geometry
		precision int
		platform  string
		topology  string
		// ordering is left 0 where orderings share the traffic, which
		// the other coordinates decide.
		ordering flit.Ordering
	}
	index := make(map[key]int)
	var groups [][]Job
	for _, j := range jobs {
		k := key{j.Seed, j.Batch, j.Workload.Name, j.Geometry, j.Precision, j.Platform.Name, j.Topology, j.Ordering}
		if orderingsShareTraffic(jobConfig(j)) {
			k.ordering = 0
		}
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

// orderingsShareTraffic reports whether every ordering of a configuration
// puts the same packets on the mesh at the same times and gets the same
// outputs: every NoC layer is fixed-point, which a fixed-point geometry
// and any precision schedule on it make so, and no partner table travels
// in in-band index flits.
func orderingsShareTraffic(cfg accel.Config) bool {
	return cfg.Geometry.Format.IsFixed() && !cfg.InBandIndex
}

// jobConfig returns the engine configuration of one job: its platform
// built for its geometry, with its ordering, precision and topology.
func jobConfig(job Job) accel.Config {
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
	return cfg
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

// runGroup measures one sweep group on one engine and writes each job's
// Result, or its error, at the job's index; it reports whether every job
// succeeded. The group's distinct orderings are the engine's wire images
// and its distinct codings the engine's coding slab, declared in one
// Engine.Count call: the first job's ordering and coding are the engine's
// own (ordering 0, coding 0), and every other one rides in an image of its
// own, or is counted, on the same link crossings. A job's Result is the
// group's with its own Ordering and Coding, and with TotalBT read from its
// (ordering, coding) row (Engine.RowBT); every other column depends only
// on the traffic's timing. Each group infers on its own clone of the
// shared model.
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
	cfg := jobConfig(job)
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
	// oindex[k] and cindex[k] are the engine's ordering and coding numbers
	// of job k; orderings[i] and installed[i] are the engine's ordering
	// and coding i.
	oindex, cindex := make([]int, len(group)), make([]int, len(group))
	orderings, installed := []flit.Ordering{job.Ordering}, codings[:1:1]
	for k, j := range group {
		oindex[k], orderings = indexOf(orderings, j.Ordering)
		cindex[k], installed = indexOf(installed, codings[k])
	}
	res, eng, err := Measure(ctx, job.Platform.Name, cfg, entry.model.CloneForInference(), entry.input, job.Batch,
		orderings[1:], installed[1:])
	if err != nil {
		// A coding that cannot be counted fails the first job that lists it.
		failed := job
		var ce *noc.CodingError
		if errors.As(err, &ce) {
			failed = group[slices.Index(cindex, ce.Coding)]
		}
		return fail(failed, err)
	}
	res.Workload = job.Workload.Name
	res.Geometry = job.Geometry
	res.Seed = job.Seed
	res.Precision = job.Precision
	for k, j := range group {
		res.Ordering = j.Ordering
		res.Coding = codingName(codings[k])
		if res.TotalBT, err = eng.RowBT(oindex[k], cindex[k]); err != nil {
			return fail(j, err)
		}
		results[j.Index] = res
	}
	return true
}

// indexOf returns v's index in list, appending v first if it is not there.
func indexOf[T comparable](list []T, v T) (int, []T) {
	if i := slices.Index(list, v); i >= 0 {
		return i, list
	}
	return len(list), append(list, v)
}

// Measure runs one measurement of model on cfg and returns its row with
// the engine that ran it: one Engine.InferBatch of batch copies of input,
// whose LastBatchStats give the row's throughput and latency. A batch
// larger than one runs under PipelinedLayers, so its inferences share the
// mesh, which the paper-faithful SerialLayers default would reduce to
// scaled serial runs. The row carries the canonical topology, the display
// coding, every traffic and energy counter, throughput and latency; the
// grid coordinates Workload, Seed and Precision are left to the caller.
// Measure installs the context's span tracer on the engine and, when
// either list is non-empty, counts the orderings and codings beside cfg's
// own (Engine.Count) before inference.
func Measure(ctx context.Context, platform string, cfg accel.Config, model *dnn.Model, input *tensor.Tensor,
	batch int, orderings []flit.Ordering, codings []string) (Result, *accel.Engine, error) {
	if batch < 1 {
		return Result{}, nil, fmt.Errorf("batch size %d < 1", batch)
	}
	if batch > 1 {
		cfg.LayerMode = accel.PipelinedLayers
	}
	eng, err := accel.New(cfg, model)
	if err != nil {
		return Result{}, nil, err
	}
	if len(orderings) > 0 || len(codings) > 0 {
		if err := eng.Count(orderings, codings); err != nil {
			return Result{}, nil, err
		}
	}
	if t := obs.FromContext(ctx); t != nil {
		eng.SetSpanTracer(t)
	}
	inputs := make([]*tensor.Tensor, batch)
	for i := range inputs {
		inputs[i] = input
	}
	if _, err := eng.InferBatch(ctx, inputs); err != nil {
		return Result{}, nil, err
	}
	// The engine's Config carries the canonical coding and topology names.
	cfg = eng.Config()
	st := eng.LastBatchStats()
	ec := eng.EnergyCounters()
	return Result{
		Platform:         platform,
		Model:            model.Name(),
		Geometry:         cfg.Geometry,
		Ordering:         cfg.Ordering,
		Coding:           codingName(cfg.LinkCoding),
		Topology:         cfg.Mesh.Topology,
		Batch:            batch,
		TotalBT:          eng.TotalBT(),
		Cycles:           eng.Cycles(),
		Packets:          eng.TaskPackets() + eng.ResultPackets(),
		Flits:            eng.TotalFlits(),
		RouterFlits:      eng.NoCStats().RouterFlits,
		MACBitOps:        ec.MACBitOps,
		WeightRegBits:    ec.WeightRegBits,
		FlitBits:         ec.FlitBits,
		Throughput:       st.Throughput(),
		AvgLatencyCycles: st.AvgLatencyCycles,
	}, eng, nil
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
