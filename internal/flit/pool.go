package flit

import "nocbt/internal/bitutil"

// Pool recycles the hot-path allocation units of one simulation: Flit
// structs, their payload Vec backing stores, Packet shells and the Flits
// slices inside them. A saturated mesh churns through all four once per
// flit; drawing them from per-Sim free-lists instead of the heap makes the
// steady-state Step/InferBatch path allocate ~zero (TestAllocRegressionGuard
// in internal/noc holds the Step benchmarks to 0 allocs/op).
//
// Ownership protocol: a producer builds packets with Vec and Packet, the
// simulator carries them, and the consumer that pops them off the network
// hands everything back with Release once the payloads have been read.
// Releasing changes object lifetime only, never values: Vec always returns
// an all-zero vector, so a recycled backing store is indistinguishable from
// a fresh NewVec.
//
// A Pool serves exactly one link width and is NOT safe for concurrent use:
// one Sim (and the engine driving it) owns one pool on one goroutine.
// Never Release a packet while any reference to its flits or payload
// vectors is still live — the backing stores are handed to the next Vec
// caller and would alias.
type Pool struct {
	width   int
	vecs    []bitutil.Vec
	flits   []*Flit
	packets []*Packet

	// Objects the free-lists cannot serve are cut from blocks: vector
	// backing words, flit structs, and packet shells with their Flits
	// arrays, each shell's array as long as the longest packet the pool
	// has built. A new block holds an eighth as many objects as the pool
	// has made of that kind, so a pool makes few blocks while its
	// high-water mark grows and leaves at most a ninth of its objects
	// unused, which the blocks' exact sizes pay for: a heap-allocated
	// Flit rounds up to a larger size class, and a shell's Flits array
	// grown by append doubles through several arrays.
	words      []uint64
	flitBlock  []Flit
	shellBlock []Packet
	shellFlits []*Flit
	madeVecs   int
	madeFlits  int
	madeShells int
	longest    int

	// gets/reuses track free-list effectiveness for tests and diagnostics.
	gets   int64
	reuses int64
}

// maxBlock caps a block's object count, which bounds the unused tail of a
// large pool's last block.
const maxBlock = 256

// blockLen returns the object count of the next block for a kind the pool
// has made made objects of.
func blockLen(made int) int { return min(max(made/8, 1), maxBlock) }

// NewPool returns an empty pool for linkBits-wide payloads.
func NewPool(linkBits int) *Pool {
	if linkBits <= 0 {
		panic("flit: pool needs a positive link width")
	}
	return &Pool{width: linkBits}
}

// Width returns the payload width this pool serves.
func (p *Pool) Width() int { return p.width }

// Vec returns an all-zero vector of the pool's width, reusing a recycled
// backing store when one is available.
func (p *Pool) Vec() bitutil.Vec {
	p.gets++
	if n := len(p.vecs); n > 0 {
		v := p.vecs[n-1]
		p.vecs = p.vecs[:n-1]
		p.reuses++
		v.Reset()
		return v
	}
	w := (p.width + 63) / 64
	if len(p.words) < w {
		p.words = make([]uint64, blockLen(p.madeVecs)*w)
	}
	p.madeVecs++
	v := bitutil.FromWords(p.width, p.words[:w:w])
	p.words = p.words[w:]
	return v
}

// PutVec hands a payload vector back to the pool. Vectors of a different
// width are dropped (they belong to another pool or were built by hand).
// The caller must not retain any reference to v's backing store.
func (p *Pool) PutVec(v bitutil.Vec) {
	if v.Width() == p.width {
		p.vecs = append(p.vecs, v)
	}
}

// flit returns a zeroed flit struct with no payload attached.
func (p *Pool) flit() *Flit {
	if n := len(p.flits); n > 0 {
		f := p.flits[n-1]
		p.flits[n-1] = nil
		p.flits = p.flits[:n-1]
		return f
	}
	if len(p.flitBlock) == 0 {
		p.flitBlock = make([]Flit, blockLen(p.madeFlits))
	}
	p.madeFlits++
	f := &p.flitBlock[0]
	p.flitBlock = p.flitBlock[1:]
	return f
}

// putFlit recycles one flit and its payload backing store.
func (p *Pool) putFlit(f *Flit) {
	if f == nil {
		return
	}
	p.PutVec(f.Payload)
	*f = Flit{}
	p.flits = append(p.flits, f)
}

// Shell returns an empty packet whose Flits slice has zero length but keeps
// whatever capacity its previous life grew — the receive-side reassembly
// buffer NI uses to collect arriving flits without allocating.
func (p *Pool) Shell() *Packet {
	if n := len(p.packets); n > 0 {
		pkt := p.packets[n-1]
		p.packets[n-1] = nil
		p.packets = p.packets[:n-1]
		return pkt
	}
	if len(p.shellBlock) == 0 {
		n := blockLen(p.madeShells)
		p.shellBlock = make([]Packet, n)
		p.shellFlits = make([]*Flit, n*p.longest)
	}
	p.madeShells++
	pkt := &p.shellBlock[0]
	p.shellBlock = p.shellBlock[1:]
	l := min(p.longest, len(p.shellFlits))
	*pkt = Packet{Flits: p.shellFlits[:0:l], pooled: true}
	p.shellFlits = p.shellFlits[l:]
	return pkt
}

// Packet assembles a packet exactly like NewPacket — head flit carrying the
// header payload, one flit per payload vector, Kind/Seq/Src/Dst filled in —
// but draws the packet shell and flit structs from the pool. The header and
// payload vectors become owned by the packet's flits (typically they came
// from Vec); the payloads slice itself is only read and may be reused by
// the caller immediately.
func (p *Pool) Packet(id uint64, src, dst int, header bitutil.Vec, payloads []bitutil.Vec) *Packet {
	total := 1 + len(payloads)
	p.longest = max(p.longest, total)
	pkt := p.Shell()
	pkt.ID, pkt.Src, pkt.Dst = id, src, dst
	for seq := 0; seq < total; seq++ {
		f := p.flit()
		f.Kind = packetFlitKind(seq, total)
		f.PacketID = id
		f.Seq = seq
		f.Src, f.Dst = src, dst
		if seq == 0 {
			f.Payload = header
		} else {
			f.Payload = payloads[seq-1]
		}
		pkt.Flits = append(pkt.Flits, f)
	}
	return pkt
}

// Release hands packets, their flits and the flits' payload backing stores
// back to the pool. Nil packets are ignored. After Release the caller must
// not touch the packets, flits or payloads again.
func (p *Pool) Release(pkts ...*Packet) {
	for _, pkt := range pkts {
		if pkt == nil {
			continue
		}
		for i, f := range pkt.Flits {
			pkt.Flits[i] = nil
			p.putFlit(f)
		}
		flits := pkt.Flits[:0]
		*pkt = Packet{Flits: flits, pooled: true}
		p.packets = append(p.packets, pkt)
	}
}

// ReleaseShell returns a packet's shell — the struct and its Flits slice —
// to the pool without touching the flits themselves, which may still be in
// flight. The source NI calls this once the last flit of an injected packet
// has left; the flits come home separately when the consumer releases the
// reassembled packet. Packets not built by a pool are ignored.
func (p *Pool) ReleaseShell(pkt *Packet) {
	if pkt == nil || !pkt.pooled {
		return
	}
	flits := pkt.Flits
	for i := range flits {
		flits[i] = nil
	}
	*pkt = Packet{Flits: flits[:0], pooled: true}
	p.packets = append(p.packets, pkt)
}

// ReleaseFlit recycles a single flit outside any packet (a consumer that
// tore a packet apart can return the pieces individually).
func (p *Pool) ReleaseFlit(f *Flit) { p.putFlit(f) }

// Stats reports how many Vec requests the pool served and how many were
// satisfied from the free-list — the recycling ratio the pooling benchmarks
// assert on.
func (p *Pool) Stats() (gets, reuses int64) { return p.gets, p.reuses }
