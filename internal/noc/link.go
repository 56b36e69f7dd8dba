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
	// id is the link's index in the simulator's link slab; coding k's
	// coder and count for this link sit at k·len(links) + id in the
	// per-Sim coding slab. It sits in Class's padding, so it does not grow
	// Link.
	id int32

	sent int64
	// lastBT is the transition count of the most recent crossing under the
	// installed coding (coding 0). A link carries at most one flit between
	// transmit and delivery, so the span tracer can read the delivered
	// flit's per-hop BT from here in Step's delivery phase.
	lastBT int64

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

// transmit places f on link l, driving each wire image of its payload
// through l's coder of every coding and adding each coder's transitions to
// its count, and registers l on the busy list. Exactly one flit may be in
// flight.
func (s *Sim) transmit(l *Link, f *flit.Flit) {
	if l.inFlight != nil {
		panic(fmt.Sprintf("noc: link %s already carries a flit", l.Name))
	}
	if f.Payload.Width() != s.payloadBits {
		panic(fmt.Sprintf("noc: link %s carries %d-bit payloads, flit payload %d",
			l.Name, s.payloadBits, f.Payload.Width()))
	}
	// Locals, so the loop does not reload them after each coder call.
	// Row v·codings + c counts coding c on image v.
	coders, counts, payload := s.coders, s.linkBT, f.Payload
	n, codings := len(s.links), len(s.schemes)
	before := counts[l.id]
	for v, j := 0, int(l.id); v < s.images; v++ {
		img := payload.Image(v, s.cfg.LinkBits)
		for end := j + codings*n; j < end; j += n {
			counts[j] += int64(coders[j].Transitions(img))
		}
	}
	l.lastBT = counts[l.id] - before
	l.sent++
	l.inFlight = f
	s.busy = append(s.busy, l)
}

// plainCoding counts plain binary transitions: it is the coder of every
// coding installed as a nil scheme, the installed coding of a new Sim
// included.
type plainCoding struct {
	wire []uint64
}

func (c *plainCoding) Transitions(payload bitutil.Vec) int {
	d := 0
	words := payload.Words()
	wire := c.wire[:len(words)]
	for i, w := range words {
		d += bits.OnesCount64(wire[i] ^ w)
		wire[i] = w
	}
	return d
}

// SetRows declares, before any traffic, everything the simulation counts:
// every flit payload carries images wire images of one link width each,
// image v in backing words [v·w, (v+1)·w) where w is a link's word count,
// and each of the codings counts every image on every link crossing. Row
// r = v·len(codings) + k counts coding k on image v, and RowBT(v, k) reads
// it. codings[0] is the links' installed coding, and row 0 — image 0
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
// coding whose row constructor rejects the link width (a *CodingError);
// a refused call installs nothing.
func (s *Sim) SetRows(images int, codings ...flit.LinkCodingScheme) error {
	switch {
	case s.declared:
		return fmt.Errorf("noc: rows are declared once; this simulation's are %d images of %d codings", s.images, len(s.schemes))
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

// CodingError is the error of a declared coding whose row constructor
// rejects the link width; Coding is its index among the declared codings.
type CodingError struct {
	Coding int
	Name   string // the coding's scheme name
	Link   string // the first link of its row
	Err    error
}

func (e *CodingError) Error() string {
	return fmt.Sprintf("noc: link coding %q on link %s: %v", e.Name, e.Link, e.Err)
}

func (e *CodingError) Unwrap() error { return e.Err }

// layRows lays out the coding slab of SetRows in one pass: fresh coders
// for every (image, coding) row, each row built by one call of its
// scheme's row constructor, or from one plain-coder slab for nil schemes.
func (s *Sim) layRows(images int, codings []flit.LinkCodingScheme) error {
	if len(codings) == 0 {
		codings = []flit.LinkCodingScheme{nil}
	}
	n, words := len(s.links), (s.cfg.LinkBits+63)/64
	plains := 0
	for _, sc := range codings {
		if sc == nil {
			plains++
		}
	}
	plain := make([]plainCoding, images*plains*n)
	wires := make([]uint64, len(plain)*words)
	coders := make([]flit.LinkCoding, 0, images*len(codings)*n)
	for v := 0; v < images; v++ {
		for k, sc := range codings {
			if sc != nil {
				// The constructor fails on the width, so for every link
				// alike: the error names the row's first.
				var err error
				if coders, err = sc.AppendRow(coders, s.cfg.LinkBits, n); err != nil {
					return &CodingError{Coding: k, Name: sc.Name(), Link: s.links[0].Name, Err: err}
				}
				continue
			}
			for range n {
				c := &plain[0]
				c.wire, wires = wires[:words:words], wires[words:]
				plain = plain[1:]
				coders = append(coders, c)
			}
		}
	}
	if width := (images-1)*64*words + s.cfg.LinkBits; s.pool.Width() != width {
		s.pool = flit.NewPool(width)
		for i := range s.nis {
			s.nis[i].pool = s.pool
		}
	}
	s.coders, s.linkBT = coders, make([]int64, len(coders))
	s.images, s.payloadBits = images, s.pool.Width()
	s.schemes = append(s.schemeBuf[:0], codings...)
	return nil
}

// RowBT returns the transitions of coding k on wire image v (see SetRows)
// over exactly the links TotalBT counts: router and ejection links, plus
// injection links when the configuration counts them. A row the slab does
// not have is an error naming its shape.
func (s *Sim) RowBT(v, k int) (int64, error) {
	codings := len(s.schemes)
	if v < 0 || v >= s.images || k < 0 || k >= codings {
		return 0, fmt.Errorf("noc: no row for image %d, coding %d: the slab has %d images of %d codings",
			v, k, s.images, codings)
	}
	return s.rowBT(v*codings + k), nil
}

// rowBT sums row r's counts over the links TotalBT counts.
func (s *Sim) rowBT(r int) int64 {
	var total int64
	n := len(s.links)
	for i, bt := range s.linkBT[r*n : (r+1)*n] {
		if s.links[i].Class != InjectionLink || s.cfg.CountInjection {
			total += bt
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
	Flits int64
}
