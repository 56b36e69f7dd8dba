package noc

import (
	"math/rand"
	"testing"

	"nocbt/internal/obs"
)

// The tracing-overhead benchmarks pair BenchmarkStepSaturated8x8 (tracing
// disabled — the alloc-guard regime) with the same workload under a span
// tracer at two sampling rates. One op is one simulated cycle; the deltas
// are the per-cycle cost of packet-lifecycle spans. The disabled case is
// held to 0 allocs/op by TestAllocRegressionGuard; run
// `go test -bench 'StepSaturated8x8' ./internal/noc` to compare all three.

// benchSimTraced is benchSim with a span tracer installed before the timer
// starts: a 1<<16-span overwrite ring (the /debug/trace shape) sampling one
// packet in `sample`.
func benchSimTraced(b *testing.B, sample int, inject func(s *Sim, cycle int64)) {
	b.Helper()
	s, err := New(Config{Width: 8, Height: 8, VCs: 4, BufDepth: 4, LinkBits: 128})
	if err != nil {
		b.Fatal(err)
	}
	tr := obs.NewTracer(1 << 16)
	tr.SetOverwrite(true)
	tr.SetSample(uint64(sample))
	s.SetSpanTracer(tr)
	nodes := s.Config().Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject(s, int64(i))
		s.Step()
		if i%64 == 63 {
			for n := 0; n < nodes; n++ {
				s.Recycle(s.PopEjected(n)...)
			}
		}
	}
}

// saturatedInject reproduces BenchmarkStepSaturated8x8's traffic: every 16
// cycles, top each NI's injection queue up to 2 pending 5-flit packets
// toward uniform-random destinations.
func saturatedInject(b *testing.B, rng *rand.Rand) func(s *Sim, cycle int64) {
	var id uint64
	return func(s *Sim, cycle int64) {
		if cycle%16 != 0 {
			return
		}
		for n := 0; n < 64; n++ {
			for s.nis[n].Pending() < 2 {
				id++
				dst := rng.Intn(64)
				if dst == n {
					dst = (n + 1) % 64
				}
				if err := s.Inject(benchPacket(s, id, n, dst, 5, 128, rng)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkStepSaturated8x8TraceSampled traces one packet in 64 — the
// always-on production sampling a serving daemon would run with.
func BenchmarkStepSaturated8x8TraceSampled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchSimTraced(b, 64, saturatedInject(b, rng))
}

// BenchmarkStepSaturated8x8TraceFull traces every packet — the worst case,
// what `nocsim -trace` / `btexp -trace` pay during a debugging run.
func BenchmarkStepSaturated8x8TraceFull(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchSimTraced(b, 1, saturatedInject(b, rng))
}
