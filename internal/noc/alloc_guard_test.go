package noc

import (
	"os"
	"testing"
)

// TestAllocRegressionGuard re-runs the BenchmarkStep* suite and fails if any
// benchmark allocates at all: a warm simulator steps without touching the
// heap, so every budget is exactly 0 allocs/op, with no tolerance.
// Allocation counts — unlike ns/op — are deterministic across machines, so
// this is the CI tripwire for pooling regressions: a dropped Release, a
// packet shell leaking from the free-list, or a kernel that starts
// allocating again shows up as a hard count, not a timing blip.
//
// The guard is opt-in (BENCH_ALLOC_GUARD=1) because it runs the full
// benchmark suite; CI enables it, plain `go test ./...` skips it.
func TestAllocRegressionGuard(t *testing.T) {
	if os.Getenv("BENCH_ALLOC_GUARD") == "" {
		t.Skip("set BENCH_ALLOC_GUARD=1 to run the allocation regression guard")
	}
	for name, fn := range map[string]func(*testing.B){
		"BenchmarkStepIdle8x8":                BenchmarkStepIdle8x8,
		"BenchmarkStepAccelLike8x8":           BenchmarkStepAccelLike8x8,
		"BenchmarkStepSaturated8x8":           BenchmarkStepSaturated8x8,
		"BenchmarkStepSaturated8x8BusInvert":  BenchmarkStepSaturated8x8BusInvert,
		"BenchmarkStepSaturated8x8Gray":       BenchmarkStepSaturated8x8Gray,
		"BenchmarkStepSaturated8x8AllCodings": BenchmarkStepSaturated8x8AllCodings,
		"BenchmarkStepSaturated8x8Images":     BenchmarkStepSaturated8x8Images,
		"BenchmarkStepSaturated8x8Grid":       BenchmarkStepSaturated8x8Grid,
		"BenchmarkStepSaturatedTorus8x8":      BenchmarkStepSaturatedTorus8x8,
		"BenchmarkStepSaturatedCMesh8x8":      BenchmarkStepSaturatedCMesh8x8,
		"BenchmarkStepSaturated4x4Wide":       BenchmarkStepSaturated4x4Wide,
	} {
		r := testing.Benchmark(fn)
		if got := r.AllocsPerOp(); got != 0 {
			t.Errorf("%s: %d allocs/op, budget 0 — pooling regression", name, got)
		} else {
			t.Logf("%s: 0 allocs/op, %d ns/op", name, r.NsPerOp())
		}
	}
}
