package noc

import (
	"fmt"
	"math/bits"

	"nocbt/internal/bitutil"
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
	// id is the link's index in the simulator's link slab; it also indexes
	// the per-Sim slabs of extra link codings (see Sim.CountCodings). It
	// sits in Class's padding, so it does not grow Link.
	id int32

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
	if len(s.coded) != 0 {
		s.countCodings(l, f.Payload)
	}
}

// countCodings drives a crossing's payload through every extra coding of
// link l (see CountCodings): coding k of link i sits at k·len(links) + i.
func (s *Sim) countCodings(l *Link, payload bitutil.Vec) {
	for j := int(l.id); j < len(s.coded); j += len(s.links) {
		s.codedBT[j] += int64(s.coded[j].Transitions(payload))
	}
}

// plainCoding counts plain binary transitions: it stands in for "none"
// among the extra codings when the primary coding is something else.
type plainCoding struct {
	wire []uint64
}

func (c *plainCoding) Transitions(payload bitutil.Vec) int {
	d := 0
	for i, w := range payload.Words() {
		d += bits.OnesCount64(c.wire[i] ^ w)
		c.wire[i] = w
	}
	return d
}

// CountCodings counts each scheme's transitions on every link crossing
// beside the installed link coding, which keeps driving BT, Stats and
// TotalBT. A link coding changes only how toggles are counted, never a
// packet or a cycle, so one simulation measures every coding of the same
// traffic. Extra codings are numbered in installation order across calls;
// CodedBT(i) reads coding i. A nil scheme counts plain binary transitions.
// Install before any traffic, like SetLinkCoding; if a scheme rejects the
// link width, nothing from this call is installed.
func (s *Sim) CountCodings(schemes ...flit.LinkCodingScheme) error {
	if s.cycle != 0 || s.Busy() {
		return fmt.Errorf("noc: extra link codings must be installed before any traffic")
	}
	n, words := len(s.links), (s.cfg.LinkBits+63)/64
	plains := 0
	for _, scheme := range schemes {
		if scheme == nil {
			plains++
		}
	}
	plain := make([]plainCoding, plains*n)
	wires := make([]uint64, len(plain)*words)
	coded := make([]flit.LinkCoding, len(s.coded), len(s.coded)+len(schemes)*n)
	copy(coded, s.coded)
	p := 0 // next plain coder
	for _, scheme := range schemes {
		for i := range s.links {
			if scheme == nil {
				c := &plain[p]
				c.wire = wires[p*words : (p+1)*words : (p+1)*words]
				p++
				coded = append(coded, c)
				continue
			}
			c, err := scheme.New(s.cfg.LinkBits)
			if err != nil {
				return fmt.Errorf("noc: link coding %q on link %s: %w", scheme.Name(), s.links[i].Name, err)
			}
			coded = append(coded, c)
		}
	}
	s.coded = coded
	s.codedBT = append(s.codedBT, make([]int64, len(coded)-len(s.codedBT))...)
	return nil
}

// CodedBT returns extra coding i's transitions (see CountCodings) over
// exactly the links TotalBT counts: router and ejection links, plus
// injection links when the configuration counts them.
func (s *Sim) CodedBT(i int) int64 {
	var total int64
	for j, bt := range s.codedBT[i*len(s.links) : (i+1)*len(s.links)] {
		if s.links[j].Class != InjectionLink || s.cfg.CountInjection {
			total += bt
		}
	}
	return total
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
