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
// counted by the simulator's link-coding slab (see Sim.SetLinkCodings),
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

// SetLinkCodings installs fresh per-link coder state from the schemes as
// codings from, from+1, …: the codings before from stay, those from on are
// replaced. Coding 0 is the links' installed coding: it drives Stats,
// LinkStats, TotalBT and the span tracer's per-hop BT. The rest are
// counted beside it. A link coding changes only how toggles are counted,
// never a packet or a cycle, so one simulation measures every coding of
// the same traffic; CodedBT(k) reads coding k, and CodedBT(0) equals
// TotalBT. A nil scheme counts plain binary transitions, as coding 0 of a
// new Sim does. Install before any traffic: switching codings mid-flight
// would misalign coder wire state with the transitions already recorded.
// If a scheme rejects the link width, nothing from this call is
// installed.
func (s *Sim) SetLinkCodings(from int, schemes ...flit.LinkCodingScheme) error {
	if s.cycle != 0 || s.Busy() {
		return fmt.Errorf("noc: link codings must be installed before any traffic")
	}
	if from < 0 || from > len(s.schemes) || from+len(schemes) == 0 {
		return fmt.Errorf("noc: cannot install %d link codings from coding %d of %d", len(schemes), from, len(s.schemes))
	}
	return s.layCoders(from, s.images, schemes)
}

// SetImages makes every flit payload carry k wire images of one link
// width each, image v in backing words [v·w, (v+1)·w) where w is a link's
// word count, and counts every coding on every image: image 0 is the
// links' own traffic, which drives Stats, LinkStats, TotalBT and the span
// tracer's per-hop BT, and ImageBT(v, k) reads coding k on image v. A
// producer whose packets differ only in payload bits — never in length,
// route or timing — puts each variant in an image of its own, so one
// simulation measures them all. The pool then serves PayloadBits-wide
// vectors, and Inject takes only payloads that wide. Call it before any
// traffic, and not with a payload-replaying trace installed: a trace
// records whole payloads, and no replay of a multi-image payload counts
// what a link carries.
func (s *Sim) SetImages(k int) error {
	if s.cycle != 0 || s.Busy() {
		return fmt.Errorf("noc: wire images must be set before any traffic")
	}
	if k < 1 {
		return fmt.Errorf("noc: %d wire images; need at least 1", k)
	}
	if k > 1 && s.observer != nil && s.observer.trace != nil {
		return fmt.Errorf("noc: cannot carry %d wire images under a payload trace", k)
	}
	if err := s.layCoders(len(s.schemes), k, nil); err != nil {
		return err
	}
	words := (s.cfg.LinkBits + 63) / 64
	s.payloadBits = (k-1)*64*words + s.cfg.LinkBits
	if s.pool.Width() != s.payloadBits {
		s.pool = flit.NewPool(s.payloadBits)
		for i := range s.nis {
			s.nis[i].pool = s.pool
		}
	}
	return nil
}

// layCoders lays out the coding slab for images images of the first keep
// codings followed by the added ones: coding c of image v is row
// v·codings + c. The rows of the kept codings on the images the slab
// already has keep their coders; every other row gets fresh coders.
func (s *Sim) layCoders(keep, images int, added []flit.LinkCodingScheme) error {
	n, words := len(s.links), (s.cfg.LinkBits+63)/64
	codings := keep + len(added)
	scheme := func(c int) flit.LinkCodingScheme {
		if c < keep {
			return s.schemes[c]
		}
		return added[c-keep]
	}
	fresh := func(v, c int) bool { return v >= s.images || c >= keep }
	plains := 0
	for v := 0; v < images; v++ {
		for c := 0; c < codings; c++ {
			if scheme(c) == nil && fresh(v, c) {
				plains++
			}
		}
	}
	plain := make([]plainCoding, plains*n)
	wires := make([]uint64, len(plain)*words)
	coders := make([]flit.LinkCoding, 0, images*codings*n)
	p := 0 // next plain coder
	for v := 0; v < images; v++ {
		for c := 0; c < codings; c++ {
			if !fresh(v, c) {
				row := (v*len(s.schemes) + c) * n
				coders = append(coders, s.coders[row:row+n]...)
				continue
			}
			sc := scheme(c)
			if rs, ok := sc.(flit.LinkCodingRowScheme); ok {
				// One batch for the row; it fails on the width, so for
				// every link alike, and names the first.
				var err error
				if coders, err = rs.AppendRow(coders, s.cfg.LinkBits, n); err != nil {
					return fmt.Errorf("noc: link coding %q on link %s: %w", sc.Name(), s.links[0].Name, err)
				}
				continue
			}
			for i := range s.links {
				if sc == nil {
					c := &plain[p]
					c.wire = wires[p*words : (p+1)*words : (p+1)*words]
					p++
					coders = append(coders, c)
					continue
				}
				c, err := sc.New(s.cfg.LinkBits)
				if err != nil {
					return fmt.Errorf("noc: link coding %q on link %s: %w", sc.Name(), s.links[i].Name, err)
				}
				coders = append(coders, c)
			}
		}
	}
	s.coders, s.images = coders, images
	s.schemes = append(s.schemes[:keep], added...)
	s.linkBT = make([]int64, len(coders))
	return nil
}

// CodedBT returns coding k's transitions (see SetLinkCodings) over exactly
// the links TotalBT counts: router and ejection links, plus injection
// links when the configuration counts them. It is ImageBT(0, k).
func (s *Sim) CodedBT(k int) int64 { return s.ImageBT(0, k) }

// ImageBT returns coding k's transitions on wire image v (see SetImages)
// over the links TotalBT counts.
func (s *Sim) ImageBT(v, k int) int64 {
	var total int64
	row := (v*len(s.schemes) + k) * len(s.links)
	for i, bt := range s.linkBT[row : row+len(s.links)] {
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
