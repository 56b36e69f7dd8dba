package sweep

import (
	"fmt"

	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/stats"
)

// Result is one measured grid point. The string fields duplicate the typed
// Geometry/Ordering in display form.
type Result struct {
	Platform     string
	Workload     string
	Model        string
	Geometry     flit.Geometry
	Format       string
	LinkBits     int
	Ordering     flit.Ordering
	OrderingName string
	// Coding is the link coding's display name ("none" when uncoded).
	Coding string
	// Topology is the canonical interconnect name ("" = the default mesh).
	Topology string
	Seed     int64
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

// RenderTable renders the results with the repository's standard table
// formatter, one row per grid point in sweep order.
func RenderTable(results []Result) string {
	t := stats.NewTable("Platform", "Topo", "Model", "Format", "Prec", "Ordering", "Coding", "Seed", "Batch",
		"Total BT", "Flits", "Cycles", "Packets", "Inf/kcycle", "Reduction %")
	for _, r := range results {
		coding := r.Coding
		if coding == "" {
			coding = "none" // rows predating the coding axis
		}
		prec := "-"
		if r.Precision > 0 {
			prec = fmt.Sprintf("%d", r.Precision)
		}
		t.AddRowf(r.Platform, noc.TopologyDisplayName(r.Topology), r.Model, r.Format, prec, r.OrderingName, coding, r.Seed, r.Batch,
			r.TotalBT, r.Flits, r.Cycles, r.Packets, r.Throughput, r.ReductionPct)
	}
	return t.String()
}
