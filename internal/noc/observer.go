package noc

import (
	"fmt"

	"nocbt/internal/flit"
	"nocbt/internal/obs"
)

// TraceFunc observes every flit delivery: the cycle it completed its link
// traversal, the link it crossed, and the flit itself. Used by the trace
// package to record packet traffic traces (one of the platform outputs in
// the paper's Fig. 7).
type TraceFunc func(cycle int64, linkName string, class LinkClass, f *flit.Flit)

// observer is the simulator's one observation path. Step reports three
// events to it — a flit leaving its source NI (inject), a flit crossing a
// link (hop), a flit reaching its destination NI (eject, after its hop) —
// and it feeds them to the TraceFunc packet trace and to the span tracer's
// packet lifecycle in the cycle tick domain. The concrete *obs.Tracer
// field (no interface) keeps span recording free of boxing allocations.
type observer struct {
	trace   TraceFunc
	spans   *obs.Tracer
	spanPID int64
	// open holds the span records of the sampled packets in flight by
	// packet ID. An open ID is not sampled again until its packet leaves,
	// and a flit belongs to an open record only if its source and
	// destination match it, so packets sharing an ID cannot mix.
	open map[uint64]*pktTrace
}

// pktTrace is the open span set of one in-flight sampled packet.
type pktTrace struct {
	src, dst int
	pkt      *obs.Span // head injection → tail ejection
	inj      *obs.Span // NI serialization window (head → tail onto the wire)
	rea      *obs.Span // NI reassembly window (head eject → tail eject)
}

// packetTIDBase offsets packet track IDs so packet lifecycles never collide
// with the low accel per-layer tracks in the same Chrome trace process.
const packetTIDBase = 1 << 20

// SetTrace installs a delivery observer; nil disables tracing. With a trace
// installed, same-cycle deliveries are reported in the deterministic
// router/port scan order (the pre-optimization Step order). A trace sees
// whole payloads, so it cannot observe a simulator carrying more than one
// wire image (see SetRows): SetTrace then returns an error and installs
// nothing.
func (s *Sim) SetTrace(fn TraceFunc) error {
	if fn != nil && s.images > 1 {
		return fmt.Errorf("noc: a payload trace cannot replay %d wire images per flit", s.images)
	}
	o := s.observerOrNew()
	o.trace = fn
	s.install(o)
	return nil
}

// SetSpanTracer installs (or, with nil, removes) a span tracer recording the
// packet lifecycle. The simulator allocates its own process-track ID from
// the tracer, so several meshes can record into one trace concurrently.
// Span timestamps are simulation cycles (exported as 1 cycle = 1 µs). The
// previous tracer's PID and open span records are dropped.
func (s *Sim) SetSpanTracer(t *obs.Tracer) {
	o := s.observerOrNew()
	o.spans, o.spanPID, o.open = t, 0, nil
	if t != nil {
		o.spanPID = t.NextPID()
		o.open = make(map[uint64]*pktTrace)
	}
	s.install(o)
}

// observerOrNew returns the installed observer, or a fresh one for install.
func (s *Sim) observerOrNew() *observer {
	if s.observer == nil {
		return new(observer)
	}
	return s.observer
}

// install makes o the simulator's observer, or drops the observer when o
// has no output left, so an unobserved Step pays one nil check per event.
func (s *Sim) install(o *observer) {
	if o.trace == nil && o.spans == nil {
		o = nil
	}
	s.observer = o
}

// SpanPID returns the process-track ID allocated by SetSpanTracer (0 when
// no tracer is installed). The accel engine shares it so layer-phase spans
// land in the same Chrome trace process as the packets they generate.
func (s *Sim) SpanPID() int64 {
	if s.observer == nil {
		return 0
	}
	return s.observer.spanPID
}

// inject observes f leaving its source NI at cycle: a sampled head opens
// the packet's lifecycle, and its tail closes the NI serialization window.
func (o *observer) inject(cycle int64, f *flit.Flit) {
	if o.spans == nil {
		return
	}
	if f.IsHead() && o.open[f.PacketID] == nil && o.spans.Sampled(f.PacketID) {
		tid := packetTIDBase + int64(f.PacketID)
		o.open[f.PacketID] = &pktTrace{
			src: f.Src,
			dst: f.Dst,
			pkt: o.spans.Begin("packet", "noc", o.spanPID, tid, cycle).
				SetAttrInt("src", int64(f.Src)).
				SetAttrInt("dst", int64(f.Dst)),
			inj: o.spans.Begin("ni.inject", "noc", o.spanPID, tid, cycle),
		}
	}
	if !f.IsTail() {
		return
	}
	if pt := o.opened(f); pt != nil {
		o.spans.End(pt.inj, cycle)
		pt.inj = nil
	}
}

// hop observes f delivered over link l at cycle. A sampled packet's hop
// occupies [cycle-1, cycle] on its track, nested inside its packet span,
// and carries the crossing's BT from the link's last-crossing recorder.
func (o *observer) hop(cycle int64, l *Link, f *flit.Flit) {
	if o.trace != nil {
		o.trace(cycle, l.Name, l.Class, f)
	}
	if o.opened(f) == nil {
		return
	}
	sp := o.spans.Begin("hop", "noc", o.spanPID, packetTIDBase+int64(f.PacketID), cycle-1).
		SetAttr("link", l.Name).
		SetAttrInt("bt", l.lastBT)
	o.spans.End(sp, cycle)
}

// eject observes f delivered over ejection link l into its destination NI
// at cycle: after the hop, the head opens the reassembly window, and the
// tail closes it together with the packet's lifecycle.
func (o *observer) eject(cycle int64, l *Link, f *flit.Flit) {
	o.hop(cycle, l, f)
	pt := o.opened(f)
	if pt == nil {
		return
	}
	if f.IsHead() {
		pt.rea = o.spans.Begin("ni.reassemble", "noc", o.spanPID,
			packetTIDBase+int64(f.PacketID), cycle)
	}
	if f.IsTail() {
		o.spans.End(pt.rea, cycle)
		o.spans.End(pt.pkt, cycle)
		delete(o.open, f.PacketID)
	}
}

// opened returns the open span record f belongs to, or nil when f's packet
// is unsampled, merely shares its ID with the open packet, or no span
// tracer is installed.
func (o *observer) opened(f *flit.Flit) *pktTrace {
	pt := o.open[f.PacketID]
	if pt == nil || pt.src != f.Src || pt.dst != f.Dst {
		return nil
	}
	return pt
}
