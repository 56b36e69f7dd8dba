// Package sweep is the concurrent experiment runner behind the repository's
// figure reproductions. A declarative Spec names the grid to explore —
// orderings × mesh platforms × flit geometries × DNN workloads × seeds —
// and Run expands it into jobs and executes them on a bounded worker pool.
//
// Determinism is the design constraint: the paper's tables must come out
// bit-identical whether the sweep runs on one worker or sixteen. Three rules
// enforce it:
//
//   - every job is fully described by spec coordinates (no global state);
//   - workload materialization owns a private rand.Rand seeded from the
//     spec's seed, never a Rand shared between goroutines;
//   - jobs that share a (workload, seed) pair share one materialized model,
//     built exactly once behind a sync.Once, and each job runs inference on
//     its own dnn.CloneForInference view so no forward-pass state is shared.
//
// Results come back in job-expansion order regardless of completion order,
// with reduction rates filled in relative to each group's Baseline run.
//
// The unit of work is a sweep group: the jobs that differ only in their
// link coding and, where every layer is fixed-point and no index flits
// travel in band, in their ordering. A coding changes how the wires'
// toggles are counted, never a packet, a cycle or an output. An ordering
// permutes values inside a packet, never its length, route or timing, and
// the PE's exact integer MAC gives every ordering the same fixed-point
// partial sums. So each group runs one engine and one simulation; float
// geometries and in-band-index platforms keep one group per ordering. The
// group's orderings are the engine's wire images: the first job's in
// expansion order is the engine's own Ordering, and every other one rides
// in an image of its own on the same flits (accel.Engine.CountOrderings).
// The group's codings are the engine's coding slab: the first job's is the
// engine's own LinkCoding (coding 0), and every other one is counted on
// the same link crossings (accel.Engine.CountCodings). Each job's Result
// is the group's with its own Ordering and Coding, and its TotalBT is its
// (ordering, coding) row (accel.Engine.OrderingBT). Two things follow:
//
//   - a span trace of a sweep shows one engine per group, and its per-hop
//     BT is that of the group's first ordering under its first coding;
//   - Workers above the number of groups adds no parallelism.
package sweep

import (
	"fmt"
	"math/rand"

	"nocbt/internal/accel"
	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/tensor"
)

// Workload names a DNN workload and knows how to materialize it for a seed.
type Workload struct {
	// Name labels the workload in results and keys the per-sweep model
	// cache; it must be unique within a Spec.
	Name string
	// Build returns the model and the inference input for the given seed.
	// The rng is private to this call and seeded from the spec's seed, so
	// Build may draw from it freely (random weight init, input synthesis)
	// without breaking cross-worker determinism. Build runs at most once
	// per (workload, seed) per sweep; the returned model and input are
	// shared by every job of that pair, so they must not be mutated after
	// return (the runner clones the model per job before inference).
	Build func(seed int64, rng *rand.Rand) (*dnn.Model, *tensor.Tensor, error)
}

// Platform names an accelerator platform and builds its configuration for a
// flit geometry.
type Platform struct {
	Name string
	// Build returns the platform configuration; the runner sets Ordering
	// on the returned config, any other field is the platform's business.
	Build func(flit.Geometry) accel.Config
}

// Spec declares the experiment grid. Every combination of the six axes
// becomes one job.
type Spec struct {
	Platforms  []Platform
	Geometries []flit.Geometry
	Orderings  []flit.Ordering
	Workloads  []Workload
	Seeds      []int64
	// Batches lists the inference batch sizes to measure. Each size runs
	// one Engine.InferBatch of that many copies of the input; sizes above 1
	// run under PipelinedLayers, measuring BT and throughput under
	// sustained multi-inference traffic. Empty means {1}.
	Batches []int
	// Codings lists link codings to measure, by registered name; "" or
	// "none" is plain binary transmission. Empty means {""} — the paper's
	// uncoded links. Codings stack with the Orderings axis: every
	// (ordering, coding) combination becomes its own grid point, and the
	// codings of one point share one simulation (see the package doc).
	Codings []string
	// Precisions lists uniform fixed-point lane widths to measure (2, 4, 8
	// or 16); each entry becomes its own grid point that overrides the
	// geometry's lane format on every layer. 0 keeps the geometry's own
	// format, as does the empty axis. Non-fixed geometries ignore the axis
	// (a float-32 grid point has no narrower lane to quantize to).
	Precisions []int
	// Topologies lists registered interconnect topologies to measure
	// ("mesh", "torus", "cmesh"); each entry overrides the platform's own
	// topology on the same terminal grid. "" keeps the platform's
	// configuration, as does the empty axis.
	Topologies []string
	// Workers bounds the pool; 0 means runtime.GOMAXPROCS(0). The pool
	// never exceeds the number of sweep groups.
	Workers int
}

// Validate reports the first structural problem with the spec.
func (s Spec) Validate() error {
	if len(s.Platforms) == 0 || len(s.Geometries) == 0 || len(s.Orderings) == 0 ||
		len(s.Workloads) == 0 || len(s.Seeds) == 0 {
		return fmt.Errorf("sweep: empty grid axis (platforms=%d geometries=%d orderings=%d workloads=%d seeds=%d)",
			len(s.Platforms), len(s.Geometries), len(s.Orderings), len(s.Workloads), len(s.Seeds))
	}
	for _, b := range s.Batches {
		if b < 1 {
			return fmt.Errorf("sweep: batch size %d < 1", b)
		}
	}
	for _, c := range s.Codings {
		if _, ok := flit.LookupLinkCoding(c); !ok {
			return fmt.Errorf("sweep: unknown link coding %q (registered: %v)", c, flit.LinkCodingNames())
		}
	}
	for _, p := range s.Precisions {
		if p == 0 {
			continue // geometry default
		}
		if _, err := bitutil.FixedN(p); err != nil {
			return fmt.Errorf("sweep: bad precision: %w", err)
		}
	}
	for _, name := range s.Topologies {
		if name == "" {
			continue // platform default
		}
		if _, ok := noc.CanonicalTopologyName(name); !ok {
			return fmt.Errorf("sweep: unknown topology %q (registered: %v)", name, noc.TopologyNames())
		}
	}
	seen := make(map[string]bool, len(s.Workloads))
	for _, w := range s.Workloads {
		if w.Name == "" || w.Build == nil {
			return fmt.Errorf("sweep: workload %q missing name or Build", w.Name)
		}
		if seen[w.Name] {
			return fmt.Errorf("sweep: duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	// Platform names are a reduction-group key, so duplicates would
	// silently cross-wire baselines.
	seenPlatform := make(map[string]bool, len(s.Platforms))
	for _, p := range s.Platforms {
		if p.Name == "" || p.Build == nil {
			return fmt.Errorf("sweep: platform %q missing name or Build", p.Name)
		}
		if seenPlatform[p.Name] {
			return fmt.Errorf("sweep: duplicate platform name %q", p.Name)
		}
		seenPlatform[p.Name] = true
	}
	return nil
}

// Job is one grid point: a single (platform, geometry, precision, ordering,
// coding, workload, seed, batch) inference measurement.
type Job struct {
	// Index is the job's position in expansion order; results are returned
	// in this order.
	Index    int
	Seed     int64
	Batch    int
	Workload Workload
	Geometry flit.Geometry
	Platform Platform
	Ordering flit.Ordering
	// Coding is the link coding's registered name ("" = plain binary).
	Coding string
	// Precision is the uniform fixed-point lane width override (0 = the
	// geometry's own format; ignored for non-fixed geometries).
	Precision int
	// Topology is the interconnect override ("" = the platform's own).
	Topology string
}

// Name renders the job's coordinates for error messages.
func (j Job) Name() string {
	name := fmt.Sprintf("%s/%s/%s/%s/seed%d/batch%d",
		j.Platform.Name, j.Geometry.Format, j.Ordering, j.Workload.Name, j.Seed, j.Batch)
	if j.Precision != 0 {
		name += fmt.Sprintf("/prec%d", j.Precision)
	}
	if j.Topology != "" {
		name += "/" + j.Topology
	}
	if j.Coding != "" {
		name += "/" + j.Coding
	}
	return name
}

// Jobs expands the grid in deterministic nesting order — seeds, then
// batches, then workloads, then geometries, then precisions, then
// platforms, then topologies, then codings, then orderings. Orderings are
// innermost so each reduction group (a job minus its ordering) is a
// contiguous run, and the serial reference loops in experiments_noc.go
// produce rows in exactly this order.
func (s Spec) Jobs() []Job {
	batches := s.Batches
	if len(batches) == 0 {
		batches = []int{1}
	}
	codings := s.Codings
	if len(codings) == 0 {
		codings = []string{""}
	}
	precisions := s.Precisions
	if len(precisions) == 0 {
		precisions = []int{0}
	}
	topologies := s.Topologies
	if len(topologies) == 0 {
		topologies = []string{""}
	}
	jobs := make([]Job, 0, len(s.Seeds)*len(batches)*len(s.Workloads)*len(s.Geometries)*len(precisions)*len(s.Platforms)*len(topologies)*len(codings)*len(s.Orderings))
	for _, seed := range s.Seeds {
		for _, batch := range batches {
			for _, w := range s.Workloads {
				for _, g := range s.Geometries {
					for _, prec := range precisions {
						for _, p := range s.Platforms {
							for _, topo := range topologies {
								for _, coding := range codings {
									for _, ord := range s.Orderings {
										jobs = append(jobs, Job{
											Index:     len(jobs),
											Seed:      seed,
											Batch:     batch,
											Workload:  w,
											Geometry:  g,
											Platform:  p,
											Topology:  topo,
											Coding:    coding,
											Ordering:  ord,
											Precision: prec,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs
}
