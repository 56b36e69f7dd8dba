package noc

import (
	"fmt"

	"nocbt/internal/flit"
)

// NI is a network interface: it injects packets into its router's local
// input port (one flit per cycle, wormhole, credit-controlled) and
// reassembles ejected flits back into packets. NIs live in the simulator's
// NI slab.
type NI struct {
	node int
	// link is the injection link into the router's local input port; down
	// is that port's VC-0 slot, which indexes the NI's credits and VC
	// ownership in the simulator's slot slabs.
	link *Link
	down int

	// queue is the injection backlog, consumed from qhead so steady-state
	// pops are allocation-free. The backing array is rewound once drained
	// and compacted when full, so it holds at most twice the most packets
	// ever pending, even at an NI that never drains.
	queue  []*flit.Packet
	qhead  int
	cur    *flit.Packet
	curIdx int
	curVC  int
	rrVC   int
	// active mirrors membership in the simulator's active-NI list.
	active bool

	// partial holds the packet being reassembled on each ejection VC. The
	// router's ejection port owns a VC from a packet's head to its tail,
	// so a VC has at most one open packet. The shells come from the
	// simulator's pool, so a recycled packet's Flits slice is reused
	// instead of re-grown for every reassembly.
	partial []*flit.Packet
	pool    *flit.Pool
	// ejected and ejectedPrev are swapped on every popEjected call so the
	// common pop-each-cycle pattern reuses one backing array instead of
	// allocating per delivery burst.
	ejected     []*flit.Packet
	ejectedPrev []*flit.Packet
}

// enqueue appends a packet to the injection queue, first moving the
// pending packets to the front of a full backing array that has room
// behind qhead: the array grows only when every slot holds a pending
// packet.
func (n *NI) enqueue(p *flit.Packet) {
	if len(n.queue) == cap(n.queue) && n.qhead > 0 {
		k := copy(n.queue, n.queue[n.qhead:])
		clear(n.queue[k:])
		n.queue, n.qhead = n.queue[:k], 0
	}
	n.queue = append(n.queue, p)
}

// Pending returns how many packets are queued or mid-injection.
func (n *NI) Pending() int {
	c := len(n.queue) - n.qhead
	if n.cur != nil {
		c++
	}
	return c
}

// tick attempts to inject one flit from NI n. Returns the injected flit, or
// nil under backpressure or with nothing to send.
func (s *Sim) tick(n *NI) (injected *flit.Flit) {
	if n.cur == nil {
		if n.qhead == len(n.queue) {
			return nil
		}
		n.cur = n.queue[n.qhead]
		n.queue[n.qhead] = nil
		n.qhead++
		if n.qhead == len(n.queue) {
			n.queue = n.queue[:0]
			n.qhead = 0
		}
		n.curIdx = 0
		n.curVC = -1
	}
	f := n.cur.Flits[n.curIdx]
	busy := s.vcBusy[n.down : n.down+s.cfg.VCs]
	if n.curVC == -1 {
		// Allocate an injection VC for the packet (round-robin over free
		// downstream VCs).
		vcs := len(busy)
		for k := 0; k < vcs; k++ {
			v := (n.rrVC + k) % vcs
			if !busy[v] {
				n.curVC = v
				busy[v] = true
				n.rrVC = (v + 1) % vcs
				break
			}
		}
		if n.curVC == -1 {
			return nil // all VCs owned by in-flight packets
		}
	}
	credit := &s.credits[n.down+n.curVC]
	if *credit <= 0 || n.link.inFlight != nil {
		return nil // backpressure
	}
	f.VC = n.curVC
	s.transmit(n.link, f)
	*credit--
	n.curIdx++
	if f.IsTail() {
		busy[n.curVC] = false
		// Every flit has left: hand the packet shell back so the receive
		// side's reassembly reuses it (no-op for non-pooled packets).
		n.pool.ReleaseShell(n.cur)
		n.cur = nil
		n.curVC = -1
	}
	return f
}

// receive accepts a flit ejected on VC f.VC. When the tail arrives the
// packet is reassembled, appended to the ejected queue and returned;
// otherwise receive returns nil.
func (n *NI) receive(f *flit.Flit) *flit.Packet {
	pkt := n.partial[f.VC]
	if pkt == nil {
		pkt = n.pool.Shell()
		pkt.ID, pkt.Src, pkt.Dst = f.PacketID, f.Src, f.Dst
		n.partial[f.VC] = pkt
	} else if pkt.ID != f.PacketID {
		panic(fmt.Sprintf("noc: NI %d ejection VC %d got a flit of packet %d while packet %d is open on it; VC ownership violated",
			n.node, f.VC, f.PacketID, pkt.ID))
	}
	pkt.Flits = append(pkt.Flits, f)
	if !f.IsTail() {
		return nil
	}
	n.partial[f.VC] = nil
	for i, fl := range pkt.Flits {
		if fl.Seq != i {
			panic(fmt.Sprintf("noc: packet %d reassembled out of order: flit %d at position %d",
				f.PacketID, fl.Seq, i))
		}
	}
	n.ejected = append(n.ejected, pkt)
	return pkt
}

// popEjected returns and clears the reassembled packets. The returned slice
// is only valid until the next popEjected call on this NI: the two internal
// buffers are swapped so per-cycle polling does not allocate.
func (n *NI) popEjected() []*flit.Packet {
	if len(n.ejected) == 0 {
		return nil
	}
	out := n.ejected
	n.ejected = n.ejectedPrev[:0]
	n.ejectedPrev = out
	return out
}
