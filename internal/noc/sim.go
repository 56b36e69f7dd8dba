package noc

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"nocbt/internal/flit"
)

// Sim is one NoC instance. Create with New, feed packets with Inject,
// advance with Step or Drain, then read Stats.
//
// Step is event-scheduled rather than scan-everything: links register on a
// busy list when a flit is transmitted, NIs with queued packets and routers
// with buffered flits sit on active lists, and each cycle visits only those.
// An idle mesh cycle therefore costs O(1) instead of O(routers × ports).
//
// Per-cycle state lives in flat slabs built once by New, so the hot loops
// index arrays instead of chasing per-port pointers. A slot names one
// input VC buffer:
//
//   - slot (r·Ports + p)·VCs + v is VC v of input port p of router r;
//   - slot R·Ports·VCs + node·VCs + v is ejection VC v of a node's NI,
//     where R is the router count.
//
// slots holds the router VC records and bufs their rings (BufDepth flits
// per slot); credits and vcBusy are indexed by the same slot and belong to
// the upstream output port feeding it, so popping a flit from slot s
// returns its credit at credits[s]. Ejection slots have effectively
// infinite credits and no buffer. Routers, ports (by r·Ports + p), links
// and NIs are value slabs.
type Sim struct {
	cfg       Config
	topo      Topology
	vcClasses int
	// reqs is the per-router allocator requester count, Ports × VCs.
	reqs int

	routers []router
	ports   []port
	slots   []vcSlot
	bufs    []*flit.Flit
	credits []int
	vcBusy  []bool
	links   []Link
	nis     []NI

	// pool recycles flits, payload vectors and packet shells across the
	// mesh's lifetime. NIs draw reassembly buffers from it; producers and
	// consumers opt in via Pool/Recycle to make steady-state traffic
	// allocation-free.
	pool *flit.Pool

	// busy holds the links carrying a flit this cycle, appended by
	// transmit and drained by the next Step's delivery phase.
	busy []*Link
	// activeNIs holds NIs with packets queued or mid-injection.
	activeNIs []*NI
	// active holds the IDs of routers with buffered flits. Step walks it in
	// ID order, so same-cycle credit returns behave exactly like the full
	// ID-order scan.
	active reqSet
	// ejected holds the nodes whose NI has reassembled packets waiting: a
	// tail delivery adds the node, PopEjected removes it.
	ejected reqSet

	cycle     int64
	inNetwork int64 // flits transmitted by NIs and not yet ejected

	latencySum int64
	latencyMax int64
	delivered  int64

	// coders holds one coding per declared coding (see SetRows), each
	// driving every link's buses on every wire image. linkBT is
	// link-major: link i's counts are contiguous at i·rows + k·images + v
	// for coding k on image v, rows = images·len(coders), so a crossing
	// adds to one run. Row 0 is the links' installed coding on their own
	// traffic, plain binary unless New or SetRows says otherwise.
	coders []flit.LinkCoding
	rows   int
	linkBT []int64
	// images is how many wire images a payload carries, and payloadBits
	// their total width: LinkBits when images is 1. declared says SetRows
	// has laid the rows out.
	images      int
	payloadBits int
	declared    bool

	// observer, when set, receives the inject, hop and eject events of
	// every flit: the TraceFunc packet trace and the span tracer's packet
	// lifecycle. It is nil unless one of them is installed, so an
	// unobserved Step pays one nil check per event.
	observer *observer
}

// New builds the topology's routers, links and NIs. Structural problems in
// a topology's wiring — an out-of-range neighbor, a port paired twice, an
// NI attachment colliding with a router link — are reported as descriptive
// errors here, not as panics under traffic. The simulator's state is sized
// up front and built in a constant number of allocations, independent of
// the network size.
//
// The links' codings are laid out as by SetRows(1, codings...): codings[0]
// is the installed coding, the rest are counted beside it. With none,
// coding 0 is plain binary. A later SetRows call replaces them.
func New(cfg Config, codings ...flit.LinkCodingScheme) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.BuildTopology()
	if err != nil {
		return nil, err
	}
	if topo.Nodes() != cfg.Nodes() {
		return nil, fmt.Errorf("noc: topology %q has %d terminals for a %dx%d grid of %d",
			topo.Name(), topo.Nodes(), cfg.Width, cfg.Height, cfg.Nodes())
	}
	routers, ports, nodes := topo.Routers(), topo.Ports(), topo.Nodes()
	if ports > maxPorts {
		// The allocators keep per-router port sets in one uint64 word.
		return nil, fmt.Errorf("noc: topology %q has %d ports per router; the router model supports at most %d",
			topo.Name(), ports, maxPorts)
	}
	vcs, reqs := cfg.VCs, ports*cfg.VCs
	routerSlots := routers * reqs
	// Router links: the topology owns port pairing — Neighbor names the far
	// router and the input port each output port's link lands on. A first
	// pass checks the wiring and counts the links.
	wired := 0
	for id := 0; id < routers; id++ {
		for p := 0; p < ports; p++ {
			nb, inPort, ok := topo.Neighbor(id, p)
			if !ok {
				continue
			}
			if nb < 0 || nb >= routers || inPort < 0 || inPort >= ports {
				return nil, fmt.Errorf("noc: topology %q wires router %d port %s to router %d port %d, outside the %d-router %d-port fabric",
					topo.Name(), id, topo.PortName(p), nb, inPort, routers, ports)
			}
			wired++
		}
	}
	nlinks := wired + 2*nodes

	s := &Sim{
		cfg: cfg, topo: topo, vcClasses: topo.VCClasses(), reqs: reqs,
		routers:   make([]router, routers),
		ports:     make([]port, routers*ports),
		slots:     make([]vcSlot, routerSlots),
		bufs:      make([]*flit.Flit, routerSlots*cfg.BufDepth),
		credits:   make([]int, routerSlots+nodes*vcs),
		vcBusy:    make([]bool, routerSlots+nodes*vcs),
		links:     make([]Link, 0, nlinks),
		nis:       make([]NI, nodes),
		pool:      flit.NewPool(cfg.LinkBits),
		busy:      make([]*Link, 0, nlinks),
		activeNIs: make([]*NI, 0, nodes),
	}
	setWords := make([]uint64, reqWords(routers)+reqWords(nodes)+routers*(1+2*ports)*reqWords(reqs))
	s.active = cutReqSet(&setWords, routers)
	s.ejected = cutReqSet(&setWords, nodes)
	// One slab holds every NI's reassembly slots, then its injection queue
	// and its two ejected lists: room for two queued packets and one
	// reassembled packet per list before they grow, what a producer that
	// keeps its NI two packets deep and a consumer that pops every cycle
	// need.
	partial := make([]*flit.Packet, nodes*(vcs+4))
	lists := partial[nodes*vcs:]
	for i := range s.slots {
		s.slots[i] = vcSlot{port: int32(i % reqs / vcs), route: -1, outVC: -1}
	}
	for i := range s.credits {
		if i < routerSlots {
			s.credits[i] = cfg.BufDepth
		} else {
			s.credits[i] = int(^uint(0) >> 1) // ejection: effectively infinite
		}
	}
	for id := range s.routers {
		s.routers[id] = router{id: id, base: id * reqs, pbase: id * ports, rcReq: cutReqSet(&setWords, reqs)}
	}
	for i := range s.ports {
		s.ports[i].vaReq = cutReqSet(&setWords, reqs)
		s.ports[i].saReq = cutReqSet(&setWords, reqs)
	}

	// Link names are cut from one string: port labels are resolved once,
	// every name is appended to a buffer sized for the longest label, and
	// each link's name is a slice of the string the buffer becomes.
	portNames := make([]string, ports)
	longest := 0
	for p := range portNames {
		portNames[p] = topo.PortName(p)
		longest = max(longest, len(portNames[p]))
	}
	digits := len(strconv.Itoa(max(routers, nodes)))
	names := make([]byte, 0, nlinks*(6+2*digits+longest))
	nameEnd := make([]int, nlinks)
	// addLink appends a link named by the bytes written to names since the
	// previous link.
	addLink := func(class LinkClass) *Link {
		i := len(s.links)
		nameEnd[i] = len(names)
		s.links = append(s.links, Link{Class: class, id: int32(i)})
		return &s.links[i]
	}
	node := func(prefix string, id int) {
		names = append(names, prefix...)
		names = strconv.AppendInt(names, int64(id), 10)
	}
	for id := 0; id < routers; id++ {
		for p := 0; p < ports; p++ {
			nb, inPort, ok := topo.Neighbor(id, p)
			if !ok {
				continue
			}
			out, in := &s.ports[id*ports+p], &s.ports[nb*ports+inPort]
			if out.link != nil {
				return nil, fmt.Errorf("noc: topology %q wires output port %s of router %d twice",
					topo.Name(), topo.PortName(p), id)
			}
			if in.feed != nil {
				return nil, fmt.Errorf("noc: topology %q wires input port %s of router %d twice (second feed from router %d port %s)",
					topo.Name(), topo.PortName(inPort), nb, id, topo.PortName(p))
			}
			node("r", id)
			names = append(names, '.')
			names = append(names, portNames[p]...)
			node("->r", nb)
			l := addLink(RouterLink)
			l.dstRouter, l.dst = &s.routers[nb], (nb*ports+inPort)*vcs
			out.link, out.down = l, l.dst
			in.feed = l
		}
	}
	// Local ports: an ejection link to each terminal's NI, an injection
	// link back. NodeRouter owns the attachment.
	for n := 0; n < nodes; n++ {
		rid, lp := topo.NodeRouter(n)
		if rid < 0 || rid >= routers || lp < 0 || lp >= ports {
			return nil, fmt.Errorf("noc: topology %q attaches terminal %d to router %d port %d, outside the %d-router %d-port fabric",
				topo.Name(), n, rid, lp, routers, ports)
		}
		local := &s.ports[rid*ports+lp]
		if local.link != nil || local.feed != nil {
			return nil, fmt.Errorf("noc: topology %q attaches terminal %d to port %s of router %d, which is already wired",
				topo.Name(), n, topo.PortName(lp), rid)
		}
		ni := &s.nis[n]
		l := lists[4*n : 4*n+4]
		*ni = NI{node: n, curVC: -1, pool: s.pool, partial: partial[n*vcs : (n+1)*vcs : (n+1)*vcs],
			queue: l[:0:2], ejected: l[2:2:3], ejectedPrev: l[3:3:4]}

		node("r", rid)
		names = append(names, '.')
		names = append(names, portNames[lp]...)
		node("->ni", n)
		ej := addLink(EjectionLink)
		ej.dstNI = ni
		local.link, local.down, local.sink = ej, routerSlots+n*vcs, true

		node("ni", n)
		node("->r", rid)
		names = append(names, '.')
		names = append(names, portNames[lp]...)
		inj := addLink(InjectionLink)
		inj.dstRouter, inj.dst = &s.routers[rid], (rid*ports+lp)*vcs
		local.feed = inj
		ni.link, ni.down = inj, inj.dst
	}
	all, from := string(names), 0
	for i := range s.links {
		s.links[i].Name = all[from:nameEnd[i]]
		from = nameEnd[i]
	}
	// Delivery order of the pre-optimization Step scan (router id → input
	// ports in port order → ejections in local-port order), so traced runs
	// report same-cycle events in the identical sequence.
	order := 0
	for id := 0; id < routers; id++ {
		rp := s.ports[id*ports : (id+1)*ports]
		for p := range rp {
			if rp[p].feed != nil {
				rp[p].feed.order = order
				order++
			}
		}
		for _, lp := range topo.LocalPorts(id) {
			if rp[lp].sink {
				rp[lp].link.order = order
				order++
			}
		}
	}
	if err := s.layRows(1, codings); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Topology returns the interconnect scheme the simulator was built on.
func (s *Sim) Topology() Topology { return s.topo }

// PayloadBits returns the width of the flit payloads the simulator
// carries: LinkBits with one wire image (see SetRows), and each further
// image adds LinkBits rounded up to whole 64-bit words.
func (s *Sim) PayloadBits() int { return s.payloadBits }

// Pool returns the simulator's flit pool. Producers build packets from it
// (Pool.Vec, Pool.Packet) and consumers return delivered packets with
// Recycle; together that makes sustained traffic allocation-free. Using the
// pool is optional — NewPacket-built packets flow through the mesh exactly
// as before, they just are not recycled.
func (s *Sim) Pool() *flit.Pool { return s.pool }

// Recycle returns fully consumed packets (typically from PopEjected) to the
// simulator's pool. The caller must not retain any reference to the
// packets, their flits or payload vectors afterwards: the backing stores
// are reused for future traffic.
func (s *Sim) Recycle(pkts ...*flit.Packet) { s.pool.Release(pkts...) }

// Inject queues a packet for transmission at its source NI.
func (s *Sim) Inject(p *flit.Packet) error {
	if p.Src < 0 || p.Src >= s.cfg.Nodes() || p.Dst < 0 || p.Dst >= s.cfg.Nodes() {
		return fmt.Errorf("noc: packet %d endpoints %d->%d outside mesh of %d nodes",
			p.ID, p.Src, p.Dst, s.cfg.Nodes())
	}
	if len(p.Flits) == 0 {
		return fmt.Errorf("noc: packet %d has no flits", p.ID)
	}
	for _, f := range p.Flits {
		if f.Payload.Width() != s.payloadBits {
			return fmt.Errorf("noc: packet %d flit payload %d bits, link payloads are %d",
				p.ID, f.Payload.Width(), s.payloadBits)
		}
	}
	ni := &s.nis[p.Src]
	ni.enqueue(p)
	if !ni.active {
		ni.active = true
		s.activeNIs = append(s.activeNIs, ni)
	}
	return nil
}

// Step advances the simulation one cycle.
func (s *Sim) Step() {
	s.cycle++
	s.deliver()
	s.injectNIs()

	// Phase 3 — routers: route computation, VC allocation, switch
	// allocation + traversal. Same-cycle credit returns flow from lower to
	// higher router ids exactly as in a full scan, so the active set is
	// walked in id order. Routers only join it on delivery (phase 1), so
	// walking a copy of each word misses nothing.
	for w, word := range s.active {
		for ; word != 0; word &= word - 1 {
			id := w<<6 + bits.TrailingZeros64(word)
			r := &s.routers[id]
			if !r.rcReq.empty() {
				s.rc(r)
			}
			if r.vaPorts != 0 {
				s.va(r)
			}
			if r.saPorts != 0 {
				s.sa(r)
			}
			if r.buffered == 0 {
				s.active.remove(id)
			}
		}
	}
}

// deliver is Step's phase 1: it delivers last cycle's in-flight flits.
// Only links that transmitted last cycle are on the busy list; delivery
// order is irrelevant to the protocol state (every link feeds a distinct
// sink) but is pinned to the scan order for trace consumers.
func (s *Sim) deliver() {
	if s.observer != nil && len(s.busy) > 1 {
		slices.SortFunc(s.busy, func(a, b *Link) int { return cmp.Compare(a.order, b.order) })
	}
	for _, l := range s.busy {
		f := l.inFlight
		if f == nil {
			continue
		}
		l.inFlight = nil
		if ni := l.dstNI; ni != nil {
			// Ejection link delivers to the NI.
			if s.observer != nil {
				s.observer.eject(s.cycle, l, f)
			}
			s.inNetwork--
			if pkt := ni.receive(f); pkt != nil {
				s.delivered++
				s.ejected.add(ni.node)
				lat := s.cycle - pkt.Flits[0].InjectCycle
				s.latencySum += lat
				if lat > s.latencyMax {
					s.latencyMax = lat
				}
			}
			continue
		}
		s.receive(l.dstRouter, l.dst, f)
		s.active.add(l.dstRouter.id)
		if s.observer != nil {
			s.observer.hop(s.cycle, l, f)
		}
	}
	s.busy = s.busy[:0]
}

// injectNIs is Step's phase 2: NI injection. Per-NI order does not matter
// (each NI owns its injection link); exhausted NIs drop off the active
// list.
func (s *Sim) injectNIs() {
	if len(s.activeNIs) > 0 {
		keep := s.activeNIs[:0]
		for _, ni := range s.activeNIs {
			if f := s.tick(ni); f != nil {
				s.inNetwork++
				if f.IsHead() {
					f.InjectCycle = s.cycle
				}
				if s.observer != nil {
					s.observer.inject(s.cycle, f)
				}
			}
			if ni.Pending() > 0 {
				keep = append(keep, ni)
			} else {
				ni.active = false
			}
		}
		s.activeNIs = keep
	}
}

// Busy reports whether any flit is queued, buffered or in flight.
func (s *Sim) Busy() bool {
	if s.inNetwork > 0 {
		return true
	}
	for _, ni := range s.activeNIs {
		if ni.Pending() > 0 {
			return true
		}
	}
	return false
}

// Drain steps until the network is empty, failing after maxCycles to guard
// against protocol bugs (every built-in topology's routing is deadlock-free
// by construction: dimension order on the open grids, dateline VC classes
// on the torus).
func (s *Sim) Drain(maxCycles int64) error {
	for i := int64(0); s.Busy(); i++ {
		if i >= maxCycles {
			pending := 0
			for n := range s.nis {
				pending += s.nis[n].Pending()
			}
			return fmt.Errorf("noc: network not drained after %d cycles (%d flits in flight, %d packets queued or mid-injection at NIs)",
				maxCycles, s.inNetwork, pending)
		}
		s.Step()
	}
	return nil
}

// Cycle returns the current simulation time.
func (s *Sim) Cycle() int64 { return s.cycle }

// PopEjected returns and clears packets delivered to the node's NI. The
// returned slice is valid until the next PopEjected call for the same node
// (the NI recycles its buffers); consume or copy it before polling again.
func (s *Sim) PopEjected(node int) []*flit.Packet {
	s.ejected.remove(node)
	return s.nis[node].popEjected()
}

// NextEjected returns the lowest node at or above from whose NI holds
// reassembled packets not yet taken by PopEjected, or -1 if there is none.
// Collectors walk the ejecting nodes in ascending order with it instead of
// polling every node each cycle.
func (s *Sim) NextEjected(from int) int { return s.ejected.first(max(from, 0), len(s.nis)) }

// Pending returns how many packets the node's NI holds: queued for
// injection or with flits still to inject.
func (s *Sim) Pending(node int) int { return s.nis[node].Pending() }

// Stats aggregates the simulation counters.
type Stats struct {
	// Cycles is the simulated time.
	Cycles int64
	// RouterBT is the bit transitions on router→router links.
	RouterBT int64
	// EjectionBT is the bit transitions on router→NI links.
	EjectionBT int64
	// InjectionBT is the bit transitions on NI→router links.
	InjectionBT int64
	// RouterFlits counts flit traversals of router→router links (flit-hops).
	RouterFlits int64
	// PacketsDelivered counts fully reassembled packets.
	PacketsDelivered int64
	// AvgLatency is the mean head-injection→tail-ejection latency.
	AvgLatency float64
	// MaxLatency is the worst packet latency.
	MaxLatency int64
}

// Stats returns a snapshot of the counters.
func (s *Sim) Stats() Stats {
	st := Stats{
		Cycles:           s.cycle,
		PacketsDelivered: s.delivered,
		MaxLatency:       s.latencyMax,
	}
	for i := range s.links {
		l, bt := &s.links[i], s.linkBT[i*s.rows]
		switch l.Class {
		case RouterLink:
			st.RouterBT += bt
			st.RouterFlits += l.Flits()
		case EjectionLink:
			st.EjectionBT += bt
		case InjectionLink:
			st.InjectionBT += bt
		}
	}
	if s.delivered > 0 {
		st.AvgLatency = float64(s.latencySum) / float64(s.delivered)
	}
	return st
}

// TotalBT returns the transitions the paper's Fig. 8 recorder accumulates
// under the installed link coding: all router output ports (router→router
// plus ejection), plus injection links when the configuration asks for
// them. It is RowBT(0, 0).
func (s *Sim) TotalBT() int64 { return s.rowBT(0) }

// LinkStats returns per-link counters for detailed reporting.
func (s *Sim) LinkStats() []LinkStat {
	out := make([]LinkStat, 0, len(s.links))
	for i := range s.links {
		l := &s.links[i]
		out = append(out, LinkStat{Name: l.Name, Class: l.Class, BT: s.linkBT[i*s.rows], SwitchBT: l.switchBT, Flits: l.Flits()})
	}
	return out
}
