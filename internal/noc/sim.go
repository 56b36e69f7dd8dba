package noc

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"nocbt/internal/flit"
	"nocbt/internal/obs"
)

// Sim is one mesh NoC instance. Create with New, feed packets with Inject,
// advance with Step or Drain, then read Stats.
//
// Step is event-scheduled rather than scan-everything: links register on a
// busy list when a flit is transmitted, NIs with queued packets and routers
// with buffered flits sit on active lists, and each cycle visits only those.
// An idle mesh cycle therefore costs O(1) instead of O(routers × ports).
type Sim struct {
	cfg     Config
	topo    Topology
	routers []*router
	nis     []*NI
	links   []*Link

	// pool recycles flits, payload vectors and packet shells across the
	// mesh's lifetime. NIs draw reassembly buffers from it; producers and
	// consumers opt in via Pool/Recycle to make steady-state traffic
	// allocation-free.
	pool *flit.Pool

	// busy holds the links carrying a flit this cycle, appended by
	// Link.transmit and drained by the next Step's delivery phase.
	busy []*Link
	// activeNIs holds NIs with packets queued or mid-injection.
	activeNIs []*NI
	// active holds the IDs of routers with buffered flits. Step walks it in
	// ID order, so same-cycle credit returns behave exactly like the full
	// ID-order scan.
	active reqSet

	cycle     int64
	inNetwork int64 // flits transmitted by NIs and not yet ejected

	packetStart map[uint64]int64
	latencySum  int64
	latencyMax  int64
	delivered   int64

	trace TraceFunc

	// spans, when set, records the packet lifecycle (inject, per-hop link
	// traversal, NI reassembly) as obs spans in the cycle tick domain. The
	// concrete *obs.Tracer field (no interface) keeps the disabled path a
	// single pointer compare per Step phase with no boxing allocation.
	spans   *obs.Tracer
	spanPID int64
	open    map[uint64]*pktTrace
}

// pktTrace is the open span set of one in-flight sampled packet.
type pktTrace struct {
	pkt *obs.Span // head injection → tail ejection
	inj *obs.Span // NI serialization window (head → tail onto the wire)
	rea *obs.Span // NI reassembly window (head eject → tail eject)
}

// packetTIDBase offsets packet track IDs so packet lifecycles never collide
// with the low accel per-layer tracks in the same Chrome trace process.
const packetTIDBase = 1 << 20

// SetSpanTracer installs (or, with nil, removes) a span tracer recording the
// packet lifecycle. The simulator allocates its own process-track ID from
// the tracer, so several meshes can record into one trace concurrently.
// Span timestamps are simulation cycles (exported as 1 cycle = 1 µs).
func (s *Sim) SetSpanTracer(t *obs.Tracer) {
	s.spans = t
	if t == nil {
		return
	}
	s.spanPID = t.NextPID()
	if s.open == nil {
		s.open = make(map[uint64]*pktTrace)
	}
}

// SpanPID returns the process-track ID allocated by SetSpanTracer (0 when
// no tracer is installed). The accel engine shares it so layer-phase spans
// land in the same Chrome trace process as the packets they generate.
func (s *Sim) SpanPID() int64 { return s.spanPID }

// spanHop records one link crossing of a sampled packet: the flit was
// transmitted last cycle and delivered this cycle, so the hop occupies
// [cycle-1, cycle] on the packet's track, nested inside its packet span.
// The per-hop BT delta comes from the link's last-crossing recorder.
func (s *Sim) spanHop(l *Link, f *flit.Flit) {
	if s.open[f.PacketID] == nil {
		return
	}
	sp := s.spans.Begin("hop", "noc", s.spanPID, packetTIDBase+int64(f.PacketID), s.cycle-1).
		SetAttr("link", l.Name).
		SetAttrInt("bt", l.lastBT)
	s.spans.End(sp, s.cycle)
}

// TraceFunc observes every flit delivery: the cycle it completed its link
// traversal, the link it crossed, and the flit itself. Used by the trace
// package to record packet traffic traces (one of the platform outputs in
// the paper's Fig. 7).
type TraceFunc func(cycle int64, linkName string, class LinkClass, f *flit.Flit)

// SetTrace installs a delivery observer; nil disables tracing. With a trace
// installed, same-cycle deliveries are reported in the deterministic
// router/port scan order (the pre-optimization Step order).
func (s *Sim) SetTrace(fn TraceFunc) { s.trace = fn }

// New builds the topology's routers, links and NIs. Structural problems in
// a topology's wiring — an out-of-range neighbor, a port paired twice, an
// NI attachment colliding with a router link — are reported as descriptive
// errors here, not as panics under traffic.
func New(cfg Config) (*Sim, error) {
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
	routers, ports := topo.Routers(), topo.Ports()
	if ports > maxPorts {
		// The allocators keep per-router port sets in one uint64 word.
		return nil, fmt.Errorf("noc: topology %q has %d ports per router; the router model supports at most %d",
			topo.Name(), ports, maxPorts)
	}
	s := &Sim{cfg: cfg, topo: topo, packetStart: make(map[uint64]int64), pool: flit.NewPool(cfg.LinkBits),
		active: newReqSet(routers)}
	slots := newReqSlots(ports, cfg.VCs)
	s.routers = make([]*router, routers)
	for id := 0; id < routers; id++ {
		s.routers[id] = newRouter(id, cfg.VCs, slots)
	}
	// Router links: the topology owns port pairing — Neighbor names the far
	// router and the input port each output port's link lands on.
	for id := 0; id < routers; id++ {
		r := s.routers[id]
		for port := 0; port < ports; port++ {
			nb, inPort, ok := topo.Neighbor(id, port)
			if !ok {
				continue
			}
			if nb < 0 || nb >= routers || inPort < 0 || inPort >= ports {
				return nil, fmt.Errorf("noc: topology %q wires router %d port %s to router %d port %d, outside the %d-router %d-port fabric",
					topo.Name(), id, topo.PortName(port), nb, inPort, routers, ports)
			}
			if r.out[port] != nil {
				return nil, fmt.Errorf("noc: topology %q wires output port %s of router %d twice",
					topo.Name(), topo.PortName(port), id)
			}
			if s.routers[nb].in[inPort] != nil {
				return nil, fmt.Errorf("noc: topology %q wires input port %s of router %d twice (second feed from router %d port %s)",
					topo.Name(), topo.PortName(inPort), nb, id, topo.PortName(port))
			}
			link := newLink(s, fmt.Sprintf("r%d.%s->r%d", id, topo.PortName(port), nb), RouterLink, cfg.LinkBits)
			s.links = append(s.links, link)
			r.out[port] = newOutPort(link, cfg.VCs, cfg.BufDepth, false, ports*cfg.VCs)
			in := newInPort(cfg.VCs, cfg.BufDepth, inPort*cfg.VCs, r.out[port])
			s.routers[nb].in[inPort] = in
			link.dstRouter = s.routers[nb]
			link.dstIn = in
		}
	}
	// Local ports: an ejection link to each terminal's NI, an injection
	// link back. NodeRouter owns the attachment.
	nodes := topo.Nodes()
	s.nis = make([]*NI, nodes)
	for node := 0; node < nodes; node++ {
		rid, lp := topo.NodeRouter(node)
		if rid < 0 || rid >= routers || lp < 0 || lp >= ports {
			return nil, fmt.Errorf("noc: topology %q attaches terminal %d to router %d port %d, outside the %d-router %d-port fabric",
				topo.Name(), node, rid, lp, routers, ports)
		}
		r := s.routers[rid]
		if r.out[lp] != nil || r.in[lp] != nil {
			return nil, fmt.Errorf("noc: topology %q attaches terminal %d to port %s of router %d, which is already wired",
				topo.Name(), node, topo.PortName(lp), rid)
		}
		ej := newLink(s, fmt.Sprintf("r%d.%s->ni%d", rid, topo.PortName(lp), node), EjectionLink, cfg.LinkBits)
		s.links = append(s.links, ej)
		r.out[lp] = newOutPort(ej, cfg.VCs, cfg.BufDepth, true, ports*cfg.VCs)

		inj := newLink(s, fmt.Sprintf("ni%d->r%d.%s", node, rid, topo.PortName(lp)), InjectionLink, cfg.LinkBits)
		s.links = append(s.links, inj)
		niOut := newOutPort(inj, cfg.VCs, cfg.BufDepth, false, 0)
		in := newInPort(cfg.VCs, cfg.BufDepth, lp*cfg.VCs, niOut)
		r.in[lp] = in
		inj.dstRouter = r
		inj.dstIn = in
		s.nis[node] = newNI(node, niOut, s.pool)
		ej.dstNI = s.nis[node]
	}
	// Delivery order of the pre-optimization Step scan (router id → input
	// ports in port order → ejections in local-port order), so traced runs
	// report same-cycle events in the identical sequence.
	order := 0
	for id := 0; id < routers; id++ {
		r := s.routers[id]
		for port := 0; port < ports; port++ {
			if r.in[port] != nil {
				r.in[port].feeder.link.order = order
				order++
			}
		}
		for _, lp := range topo.LocalPorts(id) {
			if r.out[lp] != nil && r.out[lp].sink {
				r.out[lp].link.order = order
				order++
			}
		}
	}
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Topology returns the interconnect scheme the simulator was built on.
func (s *Sim) Topology() Topology { return s.topo }

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

// SetLinkCoding installs fresh per-link coding state from the scheme on
// every link of the mesh, so all BT recorders count the coded wire
// activity (payload transitions under the coding plus extra-line flips).
// A nil scheme restores plain binary transmission. Install before any
// traffic: switching codings mid-flight would misalign coder wire state
// with the transitions already recorded.
func (s *Sim) SetLinkCoding(scheme flit.LinkCodingScheme) error {
	if s.cycle != 0 || s.Busy() {
		return fmt.Errorf("noc: link coding must be installed before any traffic")
	}
	for _, l := range s.links {
		if scheme == nil {
			l.coder = nil
			continue
		}
		coder, err := scheme.New(s.cfg.LinkBits)
		if err != nil {
			return fmt.Errorf("noc: link coding %q on link %s: %w", scheme.Name(), l.Name, err)
		}
		l.coder = coder
	}
	return nil
}

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
		if f.Payload.Width() != s.cfg.LinkBits {
			return fmt.Errorf("noc: packet %d flit payload %d bits, link is %d",
				p.ID, f.Payload.Width(), s.cfg.LinkBits)
		}
	}
	ni := s.nis[p.Src]
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
			r := s.routers[id]
			r.rc(s.topo)
			r.va()
			r.sa()
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
	if (s.trace != nil || s.spans != nil) && len(s.busy) > 1 {
		slices.SortFunc(s.busy, func(a, b *Link) int { return cmp.Compare(a.order, b.order) })
	}
	for _, l := range s.busy {
		f := l.takeDelivery()
		if f == nil {
			continue
		}
		if ni := l.dstNI; ni != nil {
			// Ejection link delivers to the NI.
			if s.trace != nil {
				s.trace(s.cycle, l.Name, EjectionLink, f)
			}
			if s.spans != nil {
				s.spanHop(l, f)
				if pt := s.open[f.PacketID]; pt != nil {
					if f.IsHead() {
						pt.rea = s.spans.Begin("ni.reassemble", "noc", s.spanPID,
							packetTIDBase+int64(f.PacketID), s.cycle)
					}
					if f.IsTail() {
						s.spans.End(pt.rea, s.cycle)
						s.spans.End(pt.pkt, s.cycle)
						delete(s.open, f.PacketID)
					}
				}
			}
			ni.receive(f)
			s.inNetwork--
			if f.IsTail() {
				s.delivered++
				if start, ok := s.packetStart[f.PacketID]; ok {
					lat := s.cycle - start
					s.latencySum += lat
					if lat > s.latencyMax {
						s.latencyMax = lat
					}
					delete(s.packetStart, f.PacketID)
				}
			}
			continue
		}
		l.dstRouter.receive(l.dstIn, f)
		s.active.add(l.dstRouter.id)
		if s.trace != nil {
			s.trace(s.cycle, l.Name, l.Class, f)
		}
		if s.spans != nil {
			s.spanHop(l, f)
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
			if f := ni.tick(); f != nil {
				s.inNetwork++
				if f.IsHead() {
					s.packetStart[f.PacketID] = s.cycle
					if s.spans != nil && s.spans.Sampled(f.PacketID) {
						pt := &pktTrace{}
						tid := packetTIDBase + int64(f.PacketID)
						pt.pkt = s.spans.Begin("packet", "noc", s.spanPID, tid, s.cycle).
							SetAttrInt("src", int64(f.Src)).
							SetAttrInt("dst", int64(f.Dst))
						pt.inj = s.spans.Begin("ni.inject", "noc", s.spanPID, tid, s.cycle)
						s.open[f.PacketID] = pt
					}
				}
				if s.spans != nil && f.IsTail() {
					if pt := s.open[f.PacketID]; pt != nil {
						s.spans.End(pt.inj, s.cycle)
						pt.inj = nil
					}
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
			for _, ni := range s.nis {
				pending += ni.Pending()
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
	return s.nis[node].popEjected()
}

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
	for _, l := range s.links {
		switch l.Class {
		case RouterLink:
			st.RouterBT += l.BT()
			st.RouterFlits += l.Flits()
		case EjectionLink:
			st.EjectionBT += l.BT()
		case InjectionLink:
			st.InjectionBT += l.BT()
		}
	}
	if s.delivered > 0 {
		st.AvgLatency = float64(s.latencySum) / float64(s.delivered)
	}
	return st
}

// TotalBT returns the transitions the paper's Fig. 8 recorder accumulates:
// all router output ports (router→router plus ejection), plus injection
// links when the configuration asks for them.
func (s *Sim) TotalBT() int64 {
	st := s.Stats()
	total := st.RouterBT + st.EjectionBT
	if s.cfg.CountInjection {
		total += st.InjectionBT
	}
	return total
}

// LinkStats returns per-link counters for detailed reporting.
func (s *Sim) LinkStats() []LinkStat {
	out := make([]LinkStat, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, LinkStat{Name: l.Name, Class: l.Class, BT: l.BT(), Flits: l.Flits()})
	}
	return out
}
