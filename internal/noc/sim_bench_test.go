package noc

import (
	"math/rand"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
)

// The Sim.Step benchmarks cover the regimes the accelerator engine drives
// the mesh through: near-idle cycles (layer tails, PE compute latency),
// the light 2-MC injection pattern of the 4×4 platform, and a saturated
// mesh where every NI always has traffic queued. One benchmark op is one
// simulated cycle, so ns/op is the per-cycle stepping cost, and
// TestAllocRegressionGuard holds every one of them to 0 allocs/op.

// benchScratch is the reusable payload-slice header benchPacket assembles
// packets through; Pool.Packet copies the vector handles into flits, so one
// scratch slice serves every packet.
var benchScratch []bitutil.Vec

// benchPacket builds an nflits-flit packet with pseudorandom payloads,
// drawing flits and payload backing stores from the simulator's pool — the
// allocation-free steady state a warm engine runs in. Every wire image of
// a payload (see SetRows) gets bits of its own.
func benchPacket(s *Sim, id uint64, src, dst, nflits, linkBits int, rng *rand.Rand) *flit.Packet {
	pool := s.Pool()
	benchScratch = benchScratch[:0]
	for i := 0; i < nflits-1; i++ {
		v := pool.Vec()
		for im := 0; im < s.images; im++ {
			img := v.Image(im, linkBits)
			for off := 0; off < linkBits; off += 64 {
				w := 64
				if linkBits-off < 64 {
					w = linkBits - off
				}
				img.SetField(off, w, rng.Uint64())
			}
		}
		benchScratch = append(benchScratch, v)
	}
	hdr := pool.Vec()
	hdr.SetField(0, 32, uint64(id))
	hdr.SetField(32, 16, uint64(dst))
	return pool.Packet(id, src, dst, hdr, benchScratch)
}

// benchSim steps the configured interconnect for b.N cycles with the named
// link codings on each of images wire images, declared in one SetRows
// call: the first coding is installed on the links (none or "" for
// uncoded), the rest are counted beside it. inject is called every cycle
// and may queue new packets, pop drains ejected packets periodically —
// recycling them into the pool, as the accelerator's PE/MC consumers do —
// so NI reassembly queues stay bounded and flits keep circulating.
func benchSim(b *testing.B, cfg Config, images int, codings []string, inject func(s *Sim, cycle int64)) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	schemes := make([]flit.LinkCodingScheme, len(codings))
	for i, coding := range codings {
		scheme, ok := flit.LookupLinkCoding(coding)
		if !ok {
			b.Fatalf("unknown link coding %q", coding)
		}
		schemes[i] = scheme
	}
	if err := s.SetRows(images, schemes...); err != nil {
		b.Fatal(err)
	}
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

// BenchmarkStepIdle8x8 measures the fixed per-cycle cost of a mesh that is
// almost always empty: one 5-flit packet crosses the full diagonal every
// 256 cycles. This is the regime the active-router/active-NI lists target.
func BenchmarkStepIdle8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var id uint64
	benchSim(b, Config{Width: 8, Height: 8, VCs: 4, BufDepth: 4, LinkBits: 128}, 1, nil, func(s *Sim, cycle int64) {
		if cycle%256 == 0 {
			id++
			if err := s.Inject(benchPacket(s, id, 0, 63, 5, 128, rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStepAccelLike8x8 mimics the accelerator's traffic shape: two
// perimeter MCs each inject a 5-flit task packet every 8 cycles toward
// rotating PE destinations.
func BenchmarkStepAccelLike8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var id uint64
	mcs := []int{0, 63}
	benchSim(b, Config{Width: 8, Height: 8, VCs: 4, BufDepth: 4, LinkBits: 128}, 1, nil, func(s *Sim, cycle int64) {
		if cycle%8 != 0 {
			return
		}
		for _, mc := range mcs {
			id++
			dst := 1 + int(id)%62
			if err := s.Inject(benchPacket(s, id, mc, dst, 5, 128, rng)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// saturatedBench keeps every NI's injection queue on an 8×8 terminal grid
// topped up with 5-flit packets to uniform-random destinations: the
// heavy-traffic regime where per-flit cost, not idle skipping, dominates.
// Parameterized on the topology and link coding so mesh, torus (dateline
// VCs), cmesh (shared concentrated routers) and coded links all stay on the
// allocation-free hot path.
func saturatedBench(b *testing.B, topology string, concentration int, codings ...string) {
	saturatedImagesBench(b, topology, concentration, 1, codings...)
}

// saturatedImagesBench is saturatedBench with images wire images per flit.
func saturatedImagesBench(b *testing.B, topology string, concentration, images int, codings ...string) {
	rng := rand.New(rand.NewSource(3))
	var id uint64
	cfg := Config{Width: 8, Height: 8, Topology: topology, Concentration: concentration, VCs: 4, BufDepth: 4, LinkBits: 128}
	benchSim(b, cfg, images, codings, func(s *Sim, cycle int64) {
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
	})
}

// BenchmarkStepSaturated8x8 is the saturated regime on the default mesh.
func BenchmarkStepSaturated8x8(b *testing.B) { saturatedBench(b, "", 0) }

// BenchmarkStepSaturated8x8BusInvert saturates the mesh with segmented
// bus-invert on every link: each hop runs the Drive kernel per flit.
func BenchmarkStepSaturated8x8BusInvert(b *testing.B) { saturatedBench(b, "", 0, "businvert") }

// BenchmarkStepSaturated8x8Gray saturates the mesh with Gray-coded links.
func BenchmarkStepSaturated8x8Gray(b *testing.B) { saturatedBench(b, "", 0, "gray") }

// BenchmarkStepSaturated8x8AllCodings saturates plain links and counts
// Gray and bus-invert on the same crossings, the way a sweep's coding
// group runs one simulation for all its codings.
func BenchmarkStepSaturated8x8AllCodings(b *testing.B) {
	saturatedBench(b, "", 0, "none", "gray", "businvert")
}

// BenchmarkStepSaturated8x8Images saturates plain links carrying three
// wire images per flit and counts plain, Gray and bus-invert on each, the
// way a sweep group runs one simulation for all its orderings and codings.
func BenchmarkStepSaturated8x8Images(b *testing.B) {
	saturatedImagesBench(b, "", 0, 3, "none", "gray", "businvert")
}

// BenchmarkStepSaturated8x8Grid saturates plain links carrying five wire
// images per flit and counts plain, Gray and bus-invert on each: the shape
// of one topology-grid sweep group, five orderings of three codings.
func BenchmarkStepSaturated8x8Grid(b *testing.B) {
	saturatedImagesBench(b, "", 0, 5, "none", "gray", "businvert")
}

// BenchmarkStepSaturatedTorus8x8 saturates the wraparound torus: the
// dateline VC-class split must not push flits off the pooled path.
func BenchmarkStepSaturatedTorus8x8(b *testing.B) { saturatedBench(b, "torus", 0) }

// BenchmarkStepSaturatedCMesh8x8 saturates the concentrated mesh (4 NIs
// per router): higher local-port contention, same allocation budget.
func BenchmarkStepSaturatedCMesh8x8(b *testing.B) { saturatedBench(b, "cmesh", 4) }

// BenchmarkStepSaturated4x4Wide is the float-32 flavour: a 4×4 mesh with
// 512-bit links under sustained traffic from its two MC corners.
func BenchmarkStepSaturated4x4Wide(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var id uint64
	mcs := []int{0, 15}
	benchSim(b, Config{Width: 4, Height: 4, VCs: 4, BufDepth: 4, LinkBits: 512}, 1, nil, func(s *Sim, cycle int64) {
		if cycle%16 != 0 {
			return
		}
		for _, mc := range mcs {
			for s.nis[mc].Pending() < 4 {
				id++
				dst := 1 + int(id)%14
				if err := s.Inject(benchPacket(s, id, mc, dst, 5, 512, rng)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
