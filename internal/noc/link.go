package noc

import (
	"fmt"

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

// Link is one unidirectional physical channel. Its transitions are
// counted by the simulator's link-coding slab (see Sim.SetRows),
// whose coders hold the wires' last driven value between flits, so idle
// cycles add no transitions — exactly the Flit_pre / Flit_current
// comparison of Fig. 8.
type Link struct {
	// Name identifies the link in reports, e.g. "r5.east->r6".
	Name string
	// Class is the link's position in the topology.
	Class LinkClass
	// id is the link's index in the simulator's link slab: each coding
	// drives the link's buses by it, and its counts start at id·rows in
	// Sim.linkBT. It sits in Class's padding, so it does not grow Link.
	id int32

	sent int64
	// lastBT is the transition count of the most recent crossing under the
	// installed coding (row 0). A link carries at most one flit between
	// transmit and delivery, so the span tracer can read the delivered
	// flit's per-hop BT from here in Step's delivery phase.
	lastBT int64
	// switchBT is the row-0 BT of the crossings that change packet: head
	// flits, and flits of another packet than the link's previous flit.
	switchBT   int64
	lastPacket uint64

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

// transmit places f on link l, driving every wire image of its payload
// through l's buses of each coding in one call per coding and adding the
// transitions to l's counts, and registers l on the busy list. Exactly one
// flit may be in flight.
func (s *Sim) transmit(l *Link, f *flit.Flit) {
	if l.inFlight != nil {
		panic(fmt.Sprintf("noc: link %s already carries a flit", l.Name))
	}
	if f.Payload.Width() != s.payloadBits {
		panic(fmt.Sprintf("noc: link %s carries %d-bit payloads, flit payload %d",
			l.Name, s.payloadBits, f.Payload.Width()))
	}
	id, images, rows := int(l.id), s.images, s.rows
	counts, payload := s.linkBT[id*rows:][:rows:rows], f.Payload.Words()
	before := counts[0]
	for k, c := range s.coders {
		c.Count(id, payload, counts[k*images:][:images])
	}
	bt := counts[0] - before
	if f.IsHead() || f.PacketID != l.lastPacket {
		l.switchBT += bt
	}
	l.lastBT, l.lastPacket = bt, f.PacketID
	l.sent++
	l.inFlight = f
	s.busy = append(s.busy, l)
}

// SetRows declares, before any traffic, everything the simulation counts:
// every flit payload carries images wire images of one link width each,
// image v in backing words [v·w, (v+1)·w) where w is a link's word count,
// and each of the codings counts every image on every link crossing. Row
// r = k·images + v counts coding k on image v, and RowBT(v, k) reads it.
// codings[0] is the links' installed coding, and row 0 — image 0
// under it — drives Stats, LinkStats, TotalBT and the span tracer's
// per-hop BT; the other rows are counted beside it. A nil scheme counts
// plain binary transitions; with no codings, coding 0 is plain.
//
// A link coding changes only how toggles are counted, and a producer whose
// packets differ only in payload bits — never in length, route or timing —
// puts each variant in an image of its own, so one simulation measures
// every row of the same traffic. With several images the pool serves
// PayloadBits-wide vectors, and Inject takes only payloads that wide.
//
// SetRows replaces the rows New laid out, and may be called once. It
// refuses a second call, any call after traffic, fewer than one image,
// several images under a payload trace (a trace records whole payloads, and
// no replay of a multi-image payload counts what a link carries) and a
// coding whose constructor rejects the link width (a *CodingError);
// a refused call installs nothing.
func (s *Sim) SetRows(images int, codings ...flit.LinkCodingScheme) error {
	switch {
	case s.declared:
		return fmt.Errorf("noc: rows are declared once; this simulation's are %d images of %d codings", s.images, len(s.coders))
	case s.cycle != 0 || s.Busy():
		return fmt.Errorf("noc: rows must be declared before any traffic")
	case images < 1:
		return fmt.Errorf("noc: %d wire images; need at least 1", images)
	case images > 1 && s.observer != nil && s.observer.trace != nil:
		return fmt.Errorf("noc: cannot carry %d wire images under a payload trace", images)
	}
	if err := s.layRows(images, codings); err != nil {
		return err
	}
	s.declared = true
	return nil
}

// CodingError is the error of a declared coding whose constructor rejects
// the link width; Coding is its index among the declared codings.
type CodingError struct {
	Coding int
	Name   string // the coding's scheme name
	Link   string // the first link it was built for
	Err    error
}

func (e *CodingError) Error() string {
	return fmt.Sprintf("noc: link coding %q on link %s: %v", e.Name, e.Link, e.Err)
}

func (e *CodingError) Unwrap() error { return e.Err }

// layRows lays out the counts of SetRows in one pass: one fresh coding per
// declared coding, each covering every link and image, and one count slab.
func (s *Sim) layRows(images int, codings []flit.LinkCodingScheme) error {
	if len(codings) == 0 {
		codings = []flit.LinkCodingScheme{nil}
	}
	n, words := len(s.links), (s.cfg.LinkBits+63)/64
	coders := make([]flit.LinkCoding, len(codings))
	for k, sc := range codings {
		if sc == nil {
			coders[k] = flit.PlainCoding(s.cfg.LinkBits, n, images)
			continue
		}
		// The constructor fails on the width, so for every link alike:
		// the error names the first.
		c, err := sc.NewCoding(s.cfg.LinkBits, n, images)
		if err != nil {
			return &CodingError{Coding: k, Name: sc.Name(), Link: s.links[0].Name, Err: err}
		}
		coders[k] = c
	}
	if width := (images-1)*64*words + s.cfg.LinkBits; s.pool.Width() != width {
		s.pool = flit.NewPool(width)
		for i := range s.nis {
			s.nis[i].pool = s.pool
		}
	}
	s.coders, s.rows, s.linkBT = coders, images*len(codings), make([]int64, n*images*len(codings))
	s.images, s.payloadBits = images, s.pool.Width()
	return nil
}

// RowBT returns the transitions of coding k on wire image v (see SetRows)
// over exactly the links TotalBT counts: router and ejection links, plus
// injection links when the configuration counts them. A row the slab does
// not have is an error naming its shape.
func (s *Sim) RowBT(v, k int) (int64, error) {
	codings := len(s.coders)
	if v < 0 || v >= s.images || k < 0 || k >= codings {
		return 0, fmt.Errorf("noc: no row for image %d, coding %d: the slab has %d images of %d codings",
			v, k, s.images, codings)
	}
	return s.rowBT(k*s.images + v), nil
}

// rowBT sums row r's counts over the links TotalBT counts.
func (s *Sim) rowBT(r int) int64 {
	var total int64
	for i := range s.links {
		if s.links[i].Class != InjectionLink || s.cfg.CountInjection {
			total += s.linkBT[i*s.rows+r]
		}
	}
	return total
}

// Flits returns how many flits have traversed this link.
func (l *Link) Flits() int64 { return l.sent }

// LinkStat is a snapshot of one link's counters.
type LinkStat struct {
	Name  string
	Class LinkClass
	BT    int64
	// SwitchBT is the part of BT whose crossings change packet: every head
	// flit's, and every flit's that follows another packet's flit on the
	// link.
	SwitchBT int64
	Flits    int64
}
