package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Route computation and the allocators visit only the members of their
// request sets. The functions below are the scans they replaced, kept
// verbatim as the oracle: every input VC, and every ports × VCs requester
// slot of every output port, every cycle. refStep runs a Sim cycle with them
// in place of router.rc, router.va and router.sa, so the two can be driven
// with identical traffic and compared cycle by cycle. Nothing else in the
// package pins the arbitration order.

// refRC is the full-scan route computation.
func refRC(r *router, topo Topology) {
	for pi := range r.in {
		in := r.in[pi]
		if in == nil {
			continue
		}
		for v := range in.vcs {
			vc := &in.vcs[v]
			if vc.route != -1 || vc.n == 0 {
				continue
			}
			if !vc.front().IsHead() {
				continue
			}
			port, class := topo.Route(r.id, vc.front().Dst)
			vc.route = port
			vc.vcLo, vc.vcHi = 0, r.vcs
			if out := r.out[port]; out != nil && !out.sink {
				if classes := topo.VCClasses(); classes > 1 {
					vc.vcLo = class * r.vcs / classes
					vc.vcHi = (class + 1) * r.vcs / classes
				}
			}
		}
	}
}

// refVA is the slot-scan VC allocator.
func refVA(r *router) {
	ports := len(r.out)
	for po := 0; po < ports; po++ {
		out := r.out[po]
		if out == nil {
			continue
		}
		n := ports * r.vcs
		granted := false
		for k := 0; k < n; k++ {
			idx := (out.rrVA + k) % n
			pi, v := idx/r.vcs, idx%r.vcs
			in := r.in[pi]
			if in == nil {
				continue
			}
			vc := &in.vcs[v]
			if vc.route != po || vc.outVC != -1 || vc.n == 0 || !vc.front().IsHead() {
				continue
			}
			free := out.freeVCIn(vc.vcLo, vc.vcHi)
			if free == -1 {
				continue
			}
			vc.outVC = free
			out.vcBusy[free] = true
			if !granted {
				out.rrVA = (idx + 1) % n
				granted = true
			}
		}
	}
}

// refSA is the slot-scan switch allocator.
func refSA(r *router) int {
	ports := len(r.out)
	var usedIn uint64 // crossbar input rows already granted this cycle
	moved := 0
	for po := 0; po < ports; po++ {
		out := r.out[po]
		if out == nil || out.link.inFlight != nil {
			continue
		}
		n := ports * r.vcs
		for k := 0; k < n; k++ {
			idx := (out.rrSA + k) % n
			pi, v := idx/r.vcs, idx%r.vcs
			if usedIn&(1<<uint(pi)) != 0 {
				continue
			}
			in := r.in[pi]
			if in == nil {
				continue
			}
			vc := &in.vcs[v]
			if vc.route != po || vc.outVC == -1 || vc.n == 0 {
				continue
			}
			if out.credits[vc.outVC] <= 0 {
				continue
			}
			f := vc.front()
			vc.pop()
			r.buffered--
			usedIn |= 1 << uint(pi)
			moved++

			f.VC = vc.outVC
			out.link.transmit(f)
			if !out.sink {
				out.credits[f.VC]--
			}
			// Return a credit upstream for the buffer slot just freed.
			if in.feeder != nil && !in.feeder.sink {
				in.feeder.credits[v]++
			}
			if f.IsTail() {
				out.vcBusy[f.VC] = false
				vc.route = -1
				vc.outVC = -1
			}
			out.rrSA = (idx + 1) % n
			break
		}
	}
	return moved
}

// refStep is Sim.Step with the full-scan route computation and slot-scan
// allocators, walking the same active-router set in id order. Flit
// arrivals still fill the request sets and port masks; the oracle never
// reads them.
func refStep(s *Sim) {
	s.cycle++
	s.deliver()
	s.injectNIs()
	for id := range s.routers {
		if s.active[id>>6]&(1<<uint(id&63)) == 0 {
			continue
		}
		r := s.routers[id]
		refRC(r, s.topo)
		refVA(r)
		refSA(r)
		if r.buffered == 0 {
			s.active.remove(id)
		}
	}
}

// allocCase is one configuration of the allocator equivalence check.
type allocCase struct {
	topology      string
	concentration int
	vcs, depth    int
}

func (c allocCase) String() string {
	name := c.topology
	if c.concentration > 0 {
		name = fmt.Sprintf("%s-c%d", name, c.concentration)
	}
	return fmt.Sprintf("%s/vc%d/depth%d", name, c.vcs, c.depth)
}

func (c allocCase) config() Config {
	return Config{Width: 4, Height: 4, Topology: c.topology, Concentration: c.concentration,
		VCs: c.vcs, BufDepth: c.depth, LinkBits: 16}
}

// ejection is one packet reassembled at a node, stamped with its cycle.
type ejection struct {
	cycle int64
	node  int
	id    uint64
}

// allocRun is everything the equivalence check compares.
type allocRun struct {
	ejections []ejection
	links     []LinkStat
	stats     Stats
}

// runAllocTraffic drives seeded random traffic through a fresh Sim, stepping
// it with Step or, when ref is set, with refStep. Every node injects a
// 1–6-flit packet to a random destination with probability rate per cycle
// for the first inject cycles; the run then drains. The traffic depends
// only on seed, so both steppers see identical packets at identical cycles.
func runAllocTraffic(t testing.TB, cfg Config, seed int64, inject int, rate float64, ref bool) allocRun {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := cfg.Nodes()
	var run allocRun
	var id uint64
	for cycle := 0; ; cycle++ {
		if cycle < inject {
			for src := 0; src < nodes; src++ {
				if rng.Float64() >= rate {
					continue
				}
				payloads := make([]uint64, 1+rng.Intn(6))
				for i := range payloads {
					payloads[i] = uint64(rng.Intn(1 << 16))
				}
				id++
				if err := s.Inject(mkPacket(id, src, rng.Intn(nodes), cfg.LinkBits, payloads...)); err != nil {
					t.Fatal(err)
				}
			}
		} else if !s.Busy() {
			break
		}
		if cycle > inject+50000 {
			t.Fatalf("%+v: network not drained %d cycles after the last injection", cfg, cycle-inject)
		}
		if ref {
			refStep(s)
		} else {
			s.Step()
		}
		for node := 0; node < nodes; node++ {
			for _, p := range s.PopEjected(node) {
				run.ejections = append(run.ejections, ejection{s.Cycle(), node, p.ID})
			}
		}
	}
	if int64(len(run.ejections)) != int64(id) {
		t.Fatalf("%+v: %d of %d packets ejected", cfg, len(run.ejections), id)
	}
	run.links, run.stats = s.LinkStats(), s.Stats()
	return run
}

// checkAllocEquivalence runs one case under both allocators and fails on the
// first difference.
func checkAllocEquivalence(t *testing.T, c allocCase, seed int64, inject int, rate float64) {
	t.Helper()
	cfg := c.config()
	if err := cfg.Validate(); err != nil {
		t.Skipf("%v: %v", c, err)
	}
	if _, err := cfg.BuildTopology(); err != nil {
		t.Skipf("%v: %v", c, err)
	}
	want := runAllocTraffic(t, cfg, seed, inject, rate, true)
	got := runAllocTraffic(t, cfg, seed, inject, rate, false)
	for i := range want.ejections {
		if got.ejections[i] != want.ejections[i] {
			t.Fatalf("%v seed %d: ejection %d is %+v, slot-scan oracle %+v", c, seed, i, got.ejections[i], want.ejections[i])
		}
	}
	if !reflect.DeepEqual(got.links, want.links) {
		t.Fatalf("%v seed %d: link stats differ from the slot-scan oracle", c, seed)
	}
	if got.stats != want.stats {
		t.Fatalf("%v seed %d: stats %+v, slot-scan oracle %+v", c, seed, got.stats, want.stats)
	}
}

var allocTopologies = []allocCase{
	{topology: "mesh"},
	{topology: "torus"},
	{topology: "cmesh", concentration: 2},
	{topology: "cmesh", concentration: 4},
}

// TestAllocatorMatchesSlotScan pins the request-set allocators to the
// slot-scan oracle on every topology × VC count × buffer depth: identical
// per-cycle ejections, per-link BT and flit counts, and Stats. The grid
// includes routers with more than 64 requesters (a 5-port mesh router with
// 16 VCs has 80; a concentration-4 cmesh router with 16 VCs has 128).
func TestAllocatorMatchesSlotScan(t *testing.T) {
	for _, topo := range allocTopologies {
		for _, vcs := range []int{1, 2, 4, 8, 16} {
			for _, depth := range []int{1, 2, 4} {
				c := topo
				c.vcs, c.depth = vcs, depth
				t.Run(c.String(), func(t *testing.T) {
					for seed := int64(1); seed <= 2; seed++ {
						checkAllocEquivalence(t, c, seed, 150, 0.3)
					}
				})
			}
		}
	}
}

// FuzzAllocatorEquivalence explores the same equivalence over random
// seeds, configurations and injection rates.
func FuzzAllocatorEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(1), uint8(80))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0), uint8(255))
	f.Add(int64(3), uint8(3), uint8(4), uint8(2), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, topo, vcs, depth, rate uint8) {
		c := allocTopologies[int(topo)%len(allocTopologies)]
		c.vcs = []int{1, 2, 4, 8, 16}[int(vcs)%5]
		c.depth = []int{1, 2, 4}[int(depth)%3]
		checkAllocEquivalence(t, c, seed, 60, 0.05+0.6*float64(rate)/255)
	})
}

// TestReqSetNext checks the round-robin walk against a brute-force scan on
// one- and multi-word sets.
func TestReqSetNext(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		s := newReqSet(n)
		members := make([]bool, n)
		empty := true
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				s.add(i)
				members[i] = true
				empty = false
			}
		}
		p, k := rng.Intn(n), rng.Intn(n+2)
		want := -1
		for j := k; j < n; j++ {
			if members[(p+j)%n] {
				want = j
				break
			}
		}
		if got := s.next(p, k, n); got != want {
			t.Fatalf("n %d p %d k %d: next %d, want %d", n, p, k, got, want)
		}
		if s.empty() != empty {
			t.Fatalf("n %d: empty() %v with members %v", n, s.empty(), members)
		}
	}
}
