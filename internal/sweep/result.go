package sweep

import "nocbt/internal/flit"

// Result is one measured NoC run: a sweep grid point, or one direct
// Measure call.
type Result struct {
	Platform string
	// Model is the model's display name (e.g. "LeNet"); Workload is the
	// grid workload name the run came from (e.g. "lenet"). Measure leaves
	// Workload empty; Run fills it.
	Model    string
	Workload string
	Geometry flit.Geometry
	Ordering flit.Ordering
	// Coding is the link coding's display name ("none" when uncoded).
	Coding string
	// Topology is the canonical interconnect name ("" = the default mesh).
	Topology string
	// Seed is the weight and input seed of a sweep run (0 from Measure).
	Seed int64
	// Batch is the inference batch size of the run (1 = serial Infer).
	Batch int
	// Precision is the uniform lane-width override the job swept (0 when
	// the precision axis was unused — the geometry's own format applied).
	Precision int
	TotalBT   int64
	Cycles    int64
	Packets   int64
	// Flits counts total injected flits (task and result packets, headers
	// included) — the traffic volume narrower precisions shrink.
	Flits int64
	// RouterFlits counts router-to-router link traversals; divided by Flits
	// it is the mean hop count, the distance metric topologies trade
	// against wiring (torus wrap links cut it, cmesh concentration too).
	RouterFlits int64
	// MACBitOps, WeightRegBits and FlitBits are the engine's per-component
	// activity counters (see accel.EnergyCounters); together with TotalBT
	// (= link transitions) they price a per-component energy estimate.
	MACBitOps     int64
	WeightRegBits int64
	FlitBits      int64
	// Throughput is inferences per thousand simulated cycles;
	// AvgLatencyCycles is the mean per-inference latency. For batch 1 both
	// degenerate to the single inference's cycle count.
	Throughput       float64
	AvgLatencyCycles float64
	// ReductionPct is relative to the group's Baseline run (0 when the
	// sweep did not include the Baseline ordering).
	ReductionPct float64
}
