package noc

import (
	"fmt"
	"math/bits"

	"nocbt/internal/flit"
)

// LinkClass distinguishes where a link sits; BT totals are reported per
// class because the paper's Fig. 8 counts router output ports (Router and
// Ejection classes) but not NI injection wires.
type LinkClass uint8

const (
	// RouterLink connects two routers.
	RouterLink LinkClass = iota + 1
	// EjectionLink connects a router's local output port to its NI.
	EjectionLink
	// InjectionLink connects an NI to its router's local input port.
	InjectionLink
)

// String implements fmt.Stringer.
func (c LinkClass) String() string {
	switch c {
	case RouterLink:
		return "router"
	case EjectionLink:
		return "ejection"
	case InjectionLink:
		return "injection"
	default:
		return fmt.Sprintf("LinkClass(%d)", uint8(c))
	}
}

// Link is one unidirectional physical channel with a transition recorder.
// Wires hold their last driven value between flits, so idle cycles add no
// transitions — exactly the Flit_pre / Flit_current comparison of Fig. 8.
// Links live in the simulator's link slab; their wire words are a window of
// its wire slab.
type Link struct {
	// Name identifies the link in reports, e.g. "r5.east->r6".
	Name string
	// Class is the link's position in the topology.
	Class LinkClass

	// wire is the current wire state, one word per 64 payload bits
	// (starts all-zero).
	wire []uint64
	bt   int64
	sent int64
	// lastBT is the transition count of the most recent crossing. A link
	// carries at most one flit between transmit and delivery, so the span
	// tracer can read the delivered flit's per-hop BT from here in Step's
	// delivery phase.
	lastBT int64

	// coder, when set, owns the wire state: transitions are whatever the
	// installed link coding (bus-invert, Gray, …) reports, including any
	// extra-line flips. Nil links count plain binary transitions.
	coder flit.LinkCoding

	// inFlight is the flit traversing this cycle; it is delivered to the
	// sink at the start of the next cycle.
	inFlight *flit.Flit

	// Delivery wiring, set once by New: exactly one of dstRouter or dstNI
	// is set, naming the sink the in-flight flit lands in. For a router
	// sink, dst is the slot of the receiving input port's VC 0.
	dstRouter *router
	dstNI     *NI
	dst       int
	// order is the link's position in the pre-optimization Step delivery
	// scan; busy links are sorted by it when a trace hook is installed so
	// recorded event sequences stay identical to the original simulator.
	order int
}

// transmit places f on link l, recording the bit transitions between the
// previous wire state and f's payload, and registers l on the busy list.
// Exactly one flit may be in flight. Uncoded links XOR-popcount and store
// the payload into the wire word by word in one pass.
func (s *Sim) transmit(l *Link, f *flit.Flit) {
	if l.inFlight != nil {
		panic(fmt.Sprintf("noc: link %s already carries a flit", l.Name))
	}
	if f.Payload.Width() != s.cfg.LinkBits {
		panic(fmt.Sprintf("noc: link %s is %d bits, flit payload %d",
			l.Name, s.cfg.LinkBits, f.Payload.Width()))
	}
	var d int
	if l.coder != nil {
		d = l.coder.Transitions(f.Payload)
	} else {
		words := f.Payload.Words()
		wire := l.wire[:len(words)]
		for i, w := range words {
			d += bits.OnesCount64(wire[i] ^ w)
			wire[i] = w
		}
	}
	l.bt += int64(d)
	l.lastBT = int64(d)
	l.sent++
	l.inFlight = f
	s.busy = append(s.busy, l)
}

// BT returns the accumulated bit transitions on this link.
func (l *Link) BT() int64 { return l.bt }

// Flits returns how many flits have traversed this link.
func (l *Link) Flits() int64 { return l.sent }

// LinkStat is a snapshot of one link's counters.
type LinkStat struct {
	Name  string
	Class LinkClass
	BT    int64
	Flits int64
}
