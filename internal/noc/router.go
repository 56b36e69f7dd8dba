package noc

import (
	"fmt"
	"math/bits"

	"nocbt/internal/flit"
)

// inVC is one virtual-channel buffer of an input port, with the per-packet
// wormhole state of the packet currently at its head. The buffer is a fixed
// ring of BufDepth slots, so steady-state traffic performs no allocation.
type inVC struct {
	buf  []*flit.Flit
	head int
	n    int
	// route is the output port of the packet at the queue head (-1 until
	// route computation runs on its head flit).
	route int
	// vcLo/vcHi bound the downstream VCs the packet may be allocated —
	// the topology's VC class for this hop, set alongside route. A
	// single-class topology (and any sink port) spans the full VC range.
	vcLo, vcHi int
	// outVC is the downstream VC granted to that packet (-1 until VC
	// allocation succeeds).
	outVC int
}

// front returns the flit at the ring head; the caller must check n > 0.
func (vc *inVC) front() *flit.Flit { return vc.buf[vc.head] }

// pop removes the head flit.
func (vc *inVC) pop() {
	vc.buf[vc.head] = nil
	vc.head++
	if vc.head == len(vc.buf) {
		vc.head = 0
	}
	vc.n--
}

// inPort is a router input port: one buffer per VC plus the upstream output
// structure to which pops return credits.
type inPort struct {
	vcs    []inVC
	feeder *outPort
	depth  int
	// base is the allocator requester index of VC 0: port number × VCs.
	base int
}

func newInPort(vcs, depth, base int, feeder *outPort) *inPort {
	p := &inPort{vcs: make([]inVC, vcs), feeder: feeder, depth: depth, base: base}
	for i := range p.vcs {
		p.vcs[i].buf = make([]*flit.Flit, depth)
		p.vcs[i].route = -1
		p.vcs[i].outVC = -1
	}
	return p
}

// push enqueues an arriving flit into its VC buffer, enforcing the credit
// contract: arrivals must never overflow the buffer.
func (p *inPort) push(f *flit.Flit) {
	vc := &p.vcs[f.VC]
	if vc.n >= p.depth {
		panic(fmt.Sprintf("noc: VC %d overflow (depth %d); credit protocol violated", f.VC, p.depth))
	}
	slot := vc.head + vc.n
	if slot >= len(vc.buf) {
		slot -= len(vc.buf)
	}
	vc.buf[slot] = f
	vc.n++
}

// outPort is a router (or NI) output port: the outgoing link, downstream
// credit counters, downstream VC ownership, and arbitration pointers.
type outPort struct {
	link    *Link
	credits []int
	vcBusy  []bool
	// sink marks ejection ports whose NI consumes flits unconditionally.
	sink bool
	// rrVA rotates priority among VC-allocation requesters.
	rrVA int
	// rrSA rotates priority among switch-allocation candidates.
	rrSA int
	// vaReq holds the router's input VCs whose head packet is routed to this
	// port and awaits a downstream VC: added by route computation, removed
	// on VC grant. saReq holds those granted one, until their tail flit
	// leaves. The allocators visit only these members. NI output ports have
	// no allocator and leave both empty.
	vaReq, saReq reqSet
}

// newOutPort builds an output port; requesters is the owning router's
// ports × VCs allocator slot count (0 for an NI).
func newOutPort(link *Link, vcs, depth int, sink bool, requesters int) *outPort {
	p := &outPort{
		link:    link,
		credits: make([]int, vcs),
		vcBusy:  make([]bool, vcs),
		sink:    sink,
		vaReq:   newReqSet(requesters),
		saReq:   newReqSet(requesters),
	}
	for i := range p.credits {
		if sink {
			p.credits[i] = int(^uint(0) >> 1) // effectively infinite
		} else {
			p.credits[i] = depth
		}
	}
	return p
}

// freeVCIn returns the lowest-index free downstream VC in [lo, hi), or -1.
func (p *outPort) freeVCIn(lo, hi int) int {
	for v := lo; v < hi; v++ {
		if !p.vcBusy[v] {
			return v
		}
	}
	return -1
}

// router is one topology node's switch. Port slices are sized to the
// topology's per-router port count at construction; nil entries mark ports
// with no link (mesh edges).
type router struct {
	id  int
	in  []*inPort
	out []*outPort
	// vcs is the per-input-port VC count.
	vcs int
	// slots splits an allocator requester index into its input port and
	// VC (slots[idx] = {idx / vcs, idx % vcs}); the table is shared by
	// every router of a Sim.
	slots []reqSlot
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

// reqSlot is the (input port, VC) pair of one requester index.
type reqSlot struct{ port, vc int32 }

// newReqSlots builds the requester-index table of a ports × vcs router.
func newReqSlots(ports, vcs int) []reqSlot {
	slots := make([]reqSlot, ports*vcs)
	for i := range slots {
		slots[i] = reqSlot{int32(i / vcs), int32(i % vcs)}
	}
	return slots
}

func newRouter(id, vcs int, slots []reqSlot) *router {
	ports := len(slots) / vcs
	return &router{
		id:    id,
		in:    make([]*inPort, ports),
		out:   make([]*outPort, ports),
		vcs:   vcs,
		slots: slots,
		rcReq: newReqSet(len(slots)),
	}
}

// reqVC returns the input VC of requester index idx.
func (r *router) reqVC(idx int) *inVC {
	sl := r.slots[idx]
	return &r.in[sl.port].vcs[sl.vc]
}

// receive buffers a flit arriving on input port in, queueing its VC for
// route computation when no packet there holds a route.
func (r *router) receive(in *inPort, f *flit.Flit) {
	in.push(f)
	r.buffered++
	if in.vcs[f.VC].route == -1 {
		r.rcReq.add(in.base + f.VC)
	}
}

// rc runs route computation over the VCs in rcReq: every head flit at a VC
// front with no route yet gets its output port — and the VC class of the
// hop — from the topology, and joins that port's VA request set. Sink
// (ejection) ports ignore the class: the NI consumes unconditionally, so
// restricting ejection VCs would only throttle.
func (r *router) rc(topo Topology) {
	for w, word := range r.rcReq {
		for ; word != 0; word &= word - 1 {
			idx := w<<6 + bits.TrailingZeros64(word)
			r.rcReq.remove(idx)
			vc := r.reqVC(idx)
			if vc.route != -1 || vc.n == 0 || !vc.front().IsHead() {
				continue
			}
			port, class := topo.Route(r.id, vc.front().Dst)
			vc.route = port
			vc.vcLo, vc.vcHi = 0, r.vcs
			out := r.out[port]
			if out == nil {
				continue
			}
			if !out.sink {
				if classes := topo.VCClasses(); classes > 1 {
					vc.vcLo = class * r.vcs / classes
					vc.vcHi = (class + 1) * r.vcs / classes
				}
			}
			out.vaReq.add(idx)
			r.vaPorts |= 1 << uint(port)
		}
	}
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
func (r *router) va() {
	n := len(r.slots)
	for ports := r.vaPorts; ports != 0; ports &= ports - 1 {
		po := bits.TrailingZeros64(ports)
		out := r.out[po]
		p := out.rrVA
		granted := false
		for k := out.vaReq.next(p, 0, n); k >= 0; k = out.vaReq.next(p, k+1, n) {
			idx := p + k
			if idx >= n {
				idx -= n
			}
			vc := r.reqVC(idx)
			free := out.freeVCIn(vc.vcLo, vc.vcHi)
			if free == -1 {
				continue
			}
			vc.outVC = free
			out.vcBusy[free] = true
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
// request set and forwards its flit onto the link. Returns the number of
// flits forwarded.
func (r *router) sa() int {
	n := len(r.slots)
	var usedIn uint64 // crossbar input rows already granted this cycle
	moved := 0
	for ports := r.saPorts; ports != 0; ports &= ports - 1 {
		po := bits.TrailingZeros64(ports)
		out := r.out[po]
		if out.link.inFlight != nil {
			continue
		}
		p := out.rrSA
		for k := out.saReq.next(p, 0, n); k >= 0; k = out.saReq.next(p, k+1, n) {
			idx := p + k
			if idx >= n {
				idx -= n
			}
			sl := r.slots[idx]
			if usedIn&(1<<uint(sl.port)) != 0 {
				continue
			}
			in := r.in[sl.port]
			vc := &in.vcs[sl.vc]
			if vc.n == 0 || out.credits[vc.outVC] <= 0 {
				continue
			}
			f := vc.front()
			vc.pop()
			r.buffered--
			usedIn |= 1 << uint(sl.port)
			moved++

			f.VC = vc.outVC
			out.link.transmit(f)
			if !out.sink {
				out.credits[f.VC]--
			}
			// Return a credit upstream for the buffer slot just freed.
			if in.feeder != nil && !in.feeder.sink {
				in.feeder.credits[sl.vc]++
			}
			if f.IsTail() {
				out.vcBusy[f.VC] = false
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
	return moved
}

// reqSet is a bitset of small non-negative integers. The allocators keep
// sets of a router's input VCs in it, indexed by the requester index
// idx = inPort·VCs + vc; it spans as many words as the router has VCs, so
// no ports × VCs product is too large (a concentration-4 cmesh router with
// 16 VCs has 128). The simulator keeps its active router IDs in one.
type reqSet []uint64

func newReqSet(requesters int) reqSet { return make(reqSet, (requesters+63)/64) }

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
// (p+j) mod n is a member, or -1.
func (s reqSet) next(p, k, n int) int {
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
