package flit

import (
	"fmt"

	"nocbt/internal/bitutil"
)

// Kind classifies a flit's position within its packet.
type Kind uint8

const (
	// Head is the first flit of a multi-flit packet; it carries the
	// routing header.
	Head Kind = iota + 1
	// Body is a middle flit.
	Body
	// Tail is the last flit of a multi-flit packet.
	Tail
	// HeadTail is the only flit of a single-flit packet.
	HeadTail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "head+tail"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Flit is one link beat. Payload is the LinkBits-wide pattern that
// physically toggles wires (everything BT measurement sees); the remaining
// fields model side-band/bookkeeping state that real routers keep per flit
// (type bits, VC id) and that the paper does not count as payload
// transitions.
type Flit struct {
	Kind Kind
	// Tag is side-band bookkeeping that a packet's source attaches to its
	// head flit for its destination, like InjectCycle: never payload, never
	// counted, carried untouched by the simulator. The accelerator stores
	// a task packet's out-of-band partner-table handle here. It sits in
	// Kind's padding, so it does not grow Flit; new and recycled flits
	// carry 0.
	Tag      int32
	PacketID uint64
	// Seq is the flit's position within its packet, starting at 0.
	Seq int
	// Src and Dst are node IDs; Dst drives X-Y routing for head flits.
	Src, Dst int
	// VC is the virtual channel assigned on the current hop's input
	// buffer. It is rewritten by every link traversal.
	VC int
	// InjectCycle is the simulation cycle at which the packet's head flit
	// left its source NI. The NoC simulator stamps it on head flits at
	// injection and reads it back at ejection to measure packet latency;
	// it is side-band bookkeeping, never part of the payload, and
	// meaningless on body and tail flits.
	InjectCycle int64
	// Payload is the on-wire bit pattern.
	Payload bitutil.Vec
}

// IsHead reports whether this flit opens a packet (Head or HeadTail).
func (f *Flit) IsHead() bool { return f.Kind == Head || f.Kind == HeadTail }

// IsTail reports whether this flit closes a packet (Tail or HeadTail).
func (f *Flit) IsTail() bool { return f.Kind == Tail || f.Kind == HeadTail }

// Packet is an ordered flit sequence travelling from Src to Dst.
type Packet struct {
	ID       uint64
	Src, Dst int
	Flits    []*Flit

	// pooled marks packets built by a Pool (Packet/Shell); the source NI
	// uses it to hand the shell back once every flit has been injected,
	// without ever recycling caller-owned NewPacket packets.
	pooled bool
}

// Pooled reports whether this packet's shell came from a Pool and may be
// recycled with Pool.ReleaseShell once its flits have all left.
func (p *Packet) Pooled() bool { return p.pooled }

// packetFlitKind returns the Kind of flit seq in a total-flit packet.
func packetFlitKind(seq, total int) Kind {
	switch {
	case total == 1:
		return HeadTail
	case seq == 0:
		return Head
	case seq == total-1:
		return Tail
	default:
		return Body
	}
}

// NewPacket assembles a packet: a head flit carrying the header payload
// followed by one flit per payload vector. Kind/Seq/Src/Dst fields are
// filled in; the caller provides already-built payload bit patterns.
// Pool.Packet is the recycling equivalent for hot paths.
func NewPacket(id uint64, src, dst int, header bitutil.Vec, payloads []bitutil.Vec) *Packet {
	total := 1 + len(payloads)
	p := &Packet{ID: id, Src: src, Dst: dst, Flits: make([]*Flit, 0, total)}
	mk := func(seq int, payload bitutil.Vec) *Flit {
		return &Flit{
			Kind:     packetFlitKind(seq, total),
			PacketID: id,
			Seq:      seq,
			Src:      src,
			Dst:      dst,
			Payload:  payload,
		}
	}
	p.Flits = append(p.Flits, mk(0, header))
	for i, pv := range payloads {
		p.Flits = append(p.Flits, mk(i+1, pv))
	}
	return p
}

// PayloadVecs returns the payload vectors of the non-header flits.
func (p *Packet) PayloadVecs() []bitutil.Vec {
	dst := make([]bitutil.Vec, 0, len(p.Flits)-1)
	for _, f := range p.Flits[1:] {
		dst = append(dst, f.Payload)
	}
	return dst
}

// Len returns the flit count.
func (p *Packet) Len() int { return len(p.Flits) }

// PacketKind tags what a packet carries in the accelerator protocol.
type PacketKind uint8

const (
	// KindTask is an MC→PE packet carrying one task (or task segment).
	KindTask PacketKind = iota + 1
	// KindResult is a PE→MC packet carrying one partial or final sum.
	KindResult
)

// headerBits is the total width of the encoded header fields.
const headerBits = 16 + 16 + 32 + 32 + 8 + 16 + 8

// MaxHeaderCount is the largest value of the header's 16-bit PairCount
// field, which carries a task packet's pair count and a result packet's
// segment index.
const MaxHeaderCount = 1<<16 - 1

// Header is the routing/task metadata encoded into the head flit payload.
// These bits toggle link wires like any other payload bits, so they are
// part of every BT measurement.
type Header struct {
	Dst, Src  uint16
	PacketID  uint32
	TaskID    uint32
	Kind      PacketKind
	PairCount uint16
	Ordering  Ordering
}

// EncodeHeader packs h into a link-wide bit vector. Field layout (LSB up):
// dst:16, src:16, packetID:32, taskID:32, kind:8, pairCount:16, ordering:8.
func EncodeHeader(g Geometry, h Header) bitutil.Vec {
	v := bitutil.NewVec(g.LinkBits)
	EncodeHeaderInto(h, v)
	return v
}

// EncodeHeaderInto packs h into v, a link-wide vector typically drawn from a
// Pool. v is reset first, so a recycled vector encodes identically to a
// fresh one.
func EncodeHeaderInto(h Header, v bitutil.Vec) {
	if v.Width() < headerBits {
		panic(fmt.Sprintf("flit: header needs %d bits, vector has %d", headerBits, v.Width()))
	}
	v.Reset()
	// The layout's fields fill the first two backing words exactly.
	w := v.Words()
	w[0] = uint64(h.Dst) | uint64(h.Src)<<16 | uint64(h.PacketID)<<32
	w[1] = uint64(h.TaskID) | uint64(h.Kind)<<32 | uint64(h.PairCount)<<40 | uint64(uint8(h.Ordering))<<56
}

// DecodeHeader unpacks a head flit payload built by EncodeHeader.
func DecodeHeader(g Geometry, v bitutil.Vec) Header {
	if v.Width() != g.LinkBits {
		panic(fmt.Sprintf("flit: header width %d, geometry wants %d", v.Width(), g.LinkBits))
	}
	w := v.Words()
	return Header{
		Dst:       uint16(w[0]),
		Src:       uint16(w[0] >> 16),
		PacketID:  uint32(w[0] >> 32),
		TaskID:    uint32(w[1]),
		Kind:      PacketKind(w[1] >> 32),
		PairCount: uint16(w[1] >> 40),
		Ordering:  Ordering(uint8(w[1] >> 56)),
	}
}
