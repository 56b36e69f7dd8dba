package noc

import (
	"fmt"
	"math/bits"

	"nocbt/internal/flit"
)

// vcSlot is one router input VC buffer's wormhole state, kept in the
// simulator's slot slab. The buffer itself is the slot's ring in the
// buffer slab (BufDepth entries), so steady-state traffic performs no
// allocation. The upstream credit counter for this buffer is the credit
// slab entry of the same slot.
type vcSlot struct {
	// head is the ring index of the front flit; n is the flit count.
	head, n int32
	// port is the input port the VC belongs to (its crossbar row).
	port int32
	// route is the output port of the packet at the queue head (-1 until
	// route computation runs on its head flit).
	route int32
	// vcLo/vcHi bound the downstream VCs the packet may be allocated —
	// the topology's VC class for this hop, set alongside route. A
	// single-class topology (and any sink port) spans the full VC range.
	vcLo, vcHi int32
	// outVC is the downstream VC granted to that packet (-1 until VC
	// allocation succeeds).
	outVC int32
}

// port is one router port: the output side's link, downstream slot range,
// arbitration pointers and request sets, plus the link feeding the input
// side (for construction checks and delivery order).
type port struct {
	// link is the output link, nil when the port has none (mesh edges).
	link *Link
	// feed is the link landing on the input port, nil when unwired.
	feed *Link
	// down is the slot of the downstream input VC 0: the output port's
	// credits and VC ownership for downstream VC v are the credit and
	// vcBusy slab entries at down+v.
	down int
	// sink marks ejection ports whose NI consumes flits unconditionally.
	sink bool
	// rrVA rotates priority among VC-allocation requesters.
	rrVA int
	// rrSA rotates priority among switch-allocation candidates.
	rrSA int
	// vaReq holds the router's input VCs whose head packet is routed to this
	// port and awaits a downstream VC: added by route computation, removed
	// on VC grant. saReq holds those granted one, until their tail flit
	// leaves. The allocators visit only these members.
	vaReq, saReq reqSet
}

// router is one topology node's switch. Its ports are the ports slab
// entries [pbase, pbase+Ports) and its input VCs the slots
// [base, base+Ports·VCs); an allocator requester index idx = port·VCs + vc
// is the slot base+idx.
type router struct {
	id    int
	base  int
	pbase int
	// rcReq holds the input VCs that may have an unrouted head flit at
	// their front: added when a flit arrives at a VC with no route or a
	// tail leaves a non-empty VC, removed once routed. Route computation
	// visits only these.
	rcReq reqSet
	// vaPorts and saPorts mark the output ports whose vaReq / saReq is
	// non-empty (bit p for port p), so the allocators visit only those.
	vaPorts, saPorts uint64
	// buffered counts flits resident in input buffers, letting the
	// simulator skip idle routers.
	buffered int
}

// maxPorts is the most ports a router may have: the allocators keep their
// per-router port sets (vaPorts, saPorts, the crossbar's used input rows)
// in one uint64.
const maxPorts = 64

// front returns the flit at the head of slot's ring; the caller must
// check vc.n > 0.
func (s *Sim) front(slot int, vc *vcSlot) *flit.Flit {
	return s.bufs[slot*s.cfg.BufDepth+int(vc.head)]
}

// receive buffers a flit arriving at router r on the input port whose VC 0
// is slot base, enforcing the credit contract (arrivals must never
// overflow the buffer) and queueing the VC for route computation when no
// packet there holds a route.
func (s *Sim) receive(r *router, base int, f *flit.Flit) {
	depth := s.cfg.BufDepth
	slot := base + f.VC
	vc := &s.slots[slot]
	if int(vc.n) >= depth {
		panic(fmt.Sprintf("noc: VC %d overflow (depth %d); credit protocol violated", f.VC, depth))
	}
	i := int(vc.head + vc.n)
	if i >= depth {
		i -= depth
	}
	s.bufs[slot*depth+i] = f
	vc.n++
	r.buffered++
	if vc.route == -1 {
		r.rcReq.add(slot - r.base)
	}
}

// rc runs route computation over the VCs in rcReq: every head flit at a VC
// front with no route yet gets its output port — and the VC class of the
// hop — from the topology, and joins that port's VA request set. Sink
// (ejection) ports ignore the class: the NI consumes unconditionally, so
// restricting ejection VCs would only throttle.
func (s *Sim) rc(r *router) {
	vcs := int32(s.cfg.VCs)
	for w, word := range r.rcReq {
		for ; word != 0; word &= word - 1 {
			idx := w<<6 + bits.TrailingZeros64(word)
			r.rcReq.remove(idx)
			slot := r.base + idx
			vc := &s.slots[slot]
			if vc.route != -1 || vc.n == 0 {
				continue
			}
			f := s.front(slot, vc)
			if !f.IsHead() {
				continue
			}
			po, class := s.topo.Route(r.id, f.Dst)
			vc.route = int32(po)
			vc.vcLo, vc.vcHi = 0, vcs
			out := &s.ports[r.pbase+po]
			if out.link == nil {
				continue
			}
			if !out.sink && s.vcClasses > 1 {
				c, n := int32(class), int32(s.vcClasses)
				vc.vcLo = c * vcs / n
				vc.vcHi = (c + 1) * vcs / n
			}
			out.vaReq.add(idx)
			r.vaPorts |= 1 << uint(po)
		}
	}
}

// freeVC returns the lowest-index free downstream VC of out in
// [vc.vcLo, vc.vcHi), or -1.
func (s *Sim) freeVC(out *port, vc *vcSlot) int32 {
	busy := s.vcBusy[out.down : out.down+s.cfg.VCs]
	for v := vc.vcLo; v < vc.vcHi; v++ {
		if !busy[v] {
			return v
		}
	}
	return -1
}

// va runs VC allocation: head packets with a route but no downstream VC
// request one from their output port; each output port grants free VCs —
// within the requester's VC class — in round-robin requester order.
//
// Only the ports in vaPorts and the members of their VA request sets are
// visited, so a cycle costs one step per real requester rather than one
// per ports × VCs slot. The visiting order reproduces the original slot
// scan exactly, including one quirk the goldens depend on: the scan reads
// rrVA afresh at every step and rrVA moves at the first grant, so after a
// first grant at offset k from the starting pointer the rest of the scan
// continues at offset 2k+2 — offsets k+1 … 2k+1 get no grant this cycle.
// (The scan's wrapped tail revisits only offsets 0 … k, which were already
// refused or granted, so stopping at offset n changes nothing.)
func (s *Sim) va(r *router) {
	n := s.reqs
	for ports := r.vaPorts; ports != 0; ports &= ports - 1 {
		po := bits.TrailingZeros64(ports)
		out := &s.ports[r.pbase+po]
		p := out.rrVA
		granted := false
		for k := out.vaReq.next(p, 0, n); k >= 0; k = out.vaReq.next(p, k+1, n) {
			idx := p + k
			if idx >= n {
				idx -= n
			}
			vc := &s.slots[r.base+idx]
			free := s.freeVC(out, vc)
			if free == -1 {
				continue
			}
			vc.outVC = free
			s.vcBusy[out.down+int(free)] = true
			out.vaReq.remove(idx)
			out.saReq.add(idx)
			if !granted {
				granted = true
				if out.rrVA = idx + 1; out.rrVA == n {
					out.rrVA = 0
				}
				k = 2*k + 1
			}
		}
		if granted {
			r.saPorts |= 1 << uint(po)
			if out.vaReq.empty() {
				r.vaPorts &^= 1 << uint(po)
			}
		}
	}
}

// sa runs switch allocation and traversal: each output port in saPorts
// picks one eligible input VC (flit buffered, VC allocated, credit
// available, crossbar input row free) in round-robin order from its SA
// request set and forwards its flit onto the link.
//
// The output link is always free here: delivery empties every link at the
// start of the cycle, and only this router's sa — once per cycle, one
// flit per port — drives its output links. Ejection slots start with an
// effectively infinite credit count, so the same decrement serves sink
// ports, and the credit freed upstream is the popped slot's own entry.
func (s *Sim) sa(r *router) {
	n := s.reqs
	depth := s.cfg.BufDepth
	var usedIn uint64 // crossbar input rows already granted this cycle
	for ports := r.saPorts; ports != 0; ports &= ports - 1 {
		po := bits.TrailingZeros64(ports)
		out := &s.ports[r.pbase+po]
		p := out.rrSA
		for k := out.saReq.next(p, 0, n); k >= 0; k = out.saReq.next(p, k+1, n) {
			idx := p + k
			if idx >= n {
				idx -= n
			}
			slot := r.base + idx
			vc := &s.slots[slot]
			row := uint64(1) << uint(vc.port)
			if usedIn&row != 0 {
				continue
			}
			down := out.down + int(vc.outVC)
			if vc.n == 0 || s.credits[down] <= 0 {
				continue
			}
			ring := slot*depth + int(vc.head)
			f := s.bufs[ring]
			s.bufs[ring] = nil
			if vc.head++; int(vc.head) == depth {
				vc.head = 0
			}
			vc.n--
			r.buffered--
			usedIn |= row

			f.VC = int(vc.outVC)
			s.transmit(out.link, f)
			s.credits[down]--
			s.credits[slot]++ // return a credit upstream for the slot just freed
			if f.IsTail() {
				s.vcBusy[down] = false
				out.saReq.remove(idx)
				if out.saReq.empty() {
					r.saPorts &^= 1 << uint(po)
				}
				vc.route = -1
				vc.outVC = -1
				if vc.n > 0 {
					r.rcReq.add(idx) // the next packet's head is at the front
				}
			}
			if out.rrSA = idx + 1; out.rrSA == n {
				out.rrSA = 0
			}
			break
		}
	}
}

// reqSet is a bitset of small non-negative integers. The allocators keep
// sets of a router's input VCs in it, indexed by the requester index
// idx = inPort·VCs + vc; it spans as many words as the router has VCs, so
// no ports × VCs product is too large (a concentration-4 cmesh router with
// 16 VCs has 128). The simulator keeps its active router IDs and the nodes
// holding ejected packets in one too.
type reqSet []uint64

// reqWords is the word count of a reqSet holding members [0, n).
func reqWords(n int) int { return (n + 63) / 64 }

// cutReqSet carves an n-member set off the front of a word slab.
func cutReqSet(slab *[]uint64, n int) reqSet {
	w := reqWords(n)
	s := (*slab)[:w:w]
	*slab = (*slab)[w:]
	return reqSet(s)
}

func (s reqSet) add(i int)    { s[i>>6] |= 1 << uint(i&63) }
func (s reqSet) remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

func (s reqSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// first returns the lowest member in [lo, hi), or -1.
func (s reqSet) first(lo, hi int) int {
	for w := lo >> 6; w < len(s) && w<<6 < hi; w++ {
		word := s[w]
		if w == lo>>6 {
			word &= ^uint64(0) << uint(lo&63)
		}
		if word != 0 {
			if i := w<<6 + bits.TrailingZeros64(word); i < hi {
				return i
			}
			return -1
		}
	}
	return -1
}

// next walks the set as a round-robin ring of n slots starting at pointer
// p: it returns the smallest offset j ≥ k (j < n) such that slot
// (p+j) mod n is a member, or -1. One-word sets (n ≤ 64, every router
// with up to 64 requesters) take an inlinable rotate-and-count path.
func (s reqSet) next(p, k, n int) int {
	if len(s) != 1 {
		return s.nextWide(p, k, n)
	}
	// Rotate slot p down to bit 0: slots p … n-1 land on bits 0 … n-p-1
	// and the wrapped slots 0 … p-1 on bits 64-p … 63, so bit order is
	// ring order with the wrapped offsets shifted up by 64-n. An empty
	// result counts 64 trailing zeros, which maps to offset n: none.
	if k >= n-p {
		k += 64 - n
	}
	j := bits.TrailingZeros64(bits.RotateLeft64(s[0], -p) & (^uint64(0) << uint(k)))
	if j >= n-p {
		j -= 64 - n
	}
	if j >= n {
		return -1
	}
	return j
}

// nextWide is next for sets spanning several words.
func (s reqSet) nextWide(p, k, n int) int {
	if k >= n {
		return -1
	}
	if i := p + k; i < n {
		if j := s.first(i, n); j >= 0 {
			return j - p
		}
		k = n - p // continue at slot 0
	}
	if j := s.first(p+k-n, p); j >= 0 {
		return j - p + n
	}
	return -1
}
