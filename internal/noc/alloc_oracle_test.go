package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Route computation and the allocators visit only the members of their
// request sets. The functions below are the scans they replaced, kept as
// the oracle: every input VC, and every ports × VCs requester slot of every
// output port, every cycle. They read the simulator's slot slabs, but their
// scans are the original logic. refStep runs a Sim cycle with them in place
// of Sim.rc, Sim.va and Sim.sa, so the two can be driven with identical
// traffic and compared cycle by cycle. Only these and TestStepMatchesGolden
// pin the arbitration order.

// refRC is the full-scan route computation.
func refRC(s *Sim, r *router) {
	ports := s.topo.Ports()
	for pi := 0; pi < ports; pi++ {
		if s.ports[r.pbase+pi].feed == nil {
			continue
		}
		for v := 0; v < s.cfg.VCs; v++ {
			slot := r.base + pi*s.cfg.VCs + v
			vc := &s.slots[slot]
			if vc.route != -1 || vc.n == 0 {
				continue
			}
			if !s.front(slot, vc).IsHead() {
				continue
			}
			port, class := s.topo.Route(r.id, s.front(slot, vc).Dst)
			vc.route = int32(port)
			vc.vcLo, vc.vcHi = 0, int32(s.cfg.VCs)
			if out := &s.ports[r.pbase+port]; out.link != nil && !out.sink {
				if classes := s.topo.VCClasses(); classes > 1 {
					vc.vcLo = int32(class * s.cfg.VCs / classes)
					vc.vcHi = int32((class + 1) * s.cfg.VCs / classes)
				}
			}
		}
	}
}

// refVA is the slot-scan VC allocator.
func refVA(s *Sim, r *router) {
	ports := s.topo.Ports()
	for po := 0; po < ports; po++ {
		out := &s.ports[r.pbase+po]
		if out.link == nil {
			continue
		}
		n := ports * s.cfg.VCs
		granted := false
		for k := 0; k < n; k++ {
			idx := (out.rrVA + k) % n
			pi := idx / s.cfg.VCs
			if s.ports[r.pbase+pi].feed == nil {
				continue
			}
			slot := r.base + idx
			vc := &s.slots[slot]
			if int(vc.route) != po || vc.outVC != -1 || vc.n == 0 || !s.front(slot, vc).IsHead() {
				continue
			}
			free := s.freeVC(out, vc)
			if free == -1 {
				continue
			}
			vc.outVC = free
			s.vcBusy[out.down+int(free)] = true
			if !granted {
				out.rrVA = (idx + 1) % n
				granted = true
			}
		}
	}
}

// refSA is the slot-scan switch allocator.
func refSA(s *Sim, r *router) int {
	ports := s.topo.Ports()
	depth := s.cfg.BufDepth
	var usedIn uint64 // crossbar input rows already granted this cycle
	moved := 0
	for po := 0; po < ports; po++ {
		out := &s.ports[r.pbase+po]
		if out.link == nil || out.link.inFlight != nil {
			continue
		}
		n := ports * s.cfg.VCs
		for k := 0; k < n; k++ {
			idx := (out.rrSA + k) % n
			pi := idx / s.cfg.VCs
			if usedIn&(1<<uint(pi)) != 0 {
				continue
			}
			in := &s.ports[r.pbase+pi]
			if in.feed == nil {
				continue
			}
			slot := r.base + idx
			vc := &s.slots[slot]
			if int(vc.route) != po || vc.outVC == -1 || vc.n == 0 {
				continue
			}
			if s.credits[out.down+int(vc.outVC)] <= 0 {
				continue
			}
			f := s.front(slot, vc)
			s.bufs[slot*depth+int(vc.head)] = nil
			vc.head = (vc.head + 1) % int32(depth)
			vc.n--
			r.buffered--
			usedIn |= 1 << uint(pi)
			moved++

			f.VC = int(vc.outVC)
			s.transmit(out.link, f)
			if !out.sink {
				s.credits[out.down+f.VC]--
			}
			// Return a credit upstream for the buffer slot just freed: the
			// feeding output port's counter for this VC is the slot's own.
			s.credits[slot]++
			if f.IsTail() {
				s.vcBusy[out.down+f.VC] = false
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
		r := &s.routers[id]
		refRC(s, r)
		refVA(s, r)
		refSA(s, r)
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
		words := make([]uint64, reqWords(n))
		s := cutReqSet(&words, n)
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
