package flit

import (
	"testing"

	"nocbt/internal/bitutil"
)

func TestGeometryLanes(t *testing.T) {
	g := paperFloat32
	if g.Lanes() != 16 || g.HalfLanes() != 8 || g.LaneBits() != 32 {
		t.Errorf("float32 geometry: lanes=%d half=%d lane bits=%d", g.Lanes(), g.HalfLanes(), g.LaneBits())
	}
	g = paperFixed8
	if g.Lanes() != 16 || g.HalfLanes() != 8 || g.LaneBits() != 8 {
		t.Errorf("fixed8 geometry: lanes=%d half=%d lane bits=%d", g.Lanes(), g.HalfLanes(), g.LaneBits())
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := paperFloat32.Validate(); err != nil {
		t.Errorf("float32 geometry invalid: %v", err)
	}
	if err := paperFixed8.Validate(); err != nil {
		t.Errorf("fixed8 geometry invalid: %v", err)
	}
	bad := []Geometry{
		{LinkBits: 0, Format: bitutil.Float32},
		{LinkBits: 100, Format: bitutil.Float32}, // not lane multiple
		{LinkBits: 32, Format: bitutil.Float32},  // odd lane count (1)
		{LinkBits: 24, Format: bitutil.Fixed8},   // too narrow for header (3 lanes, odd too)
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v unexpectedly valid", g)
		}
	}
}

func TestGeometryString(t *testing.T) {
	if got := paperFloat32.String(); got != "512-bit link, 16×float-32" {
		t.Errorf("String = %q", got)
	}
}

func TestOrderingString(t *testing.T) {
	if Baseline.String() != "O0" || Affiliated.String() != "O1" || Separated.String() != "O2" {
		t.Errorf("ordering names: %s %s %s", Baseline, Affiliated, Separated)
	}
	if len(Orderings()) != 3 {
		t.Errorf("Orderings() = %v", Orderings())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Head: "head", Body: "body", Tail: "tail", HeadTail: "head+tail"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestNewPacketKinds(t *testing.T) {
	g := paperFixed8
	hdr := bitutil.NewVec(g.LinkBits)
	payloads := []bitutil.Vec{bitutil.NewVec(g.LinkBits), bitutil.NewVec(g.LinkBits)}
	p := NewPacket(7, 1, 5, hdr, payloads)
	if p.Len() != 3 {
		t.Fatalf("packet length %d, want 3", p.Len())
	}
	if p.Flits[0].Kind != Head || p.Flits[1].Kind != Body || p.Flits[2].Kind != Tail {
		t.Errorf("kinds = %v %v %v", p.Flits[0].Kind, p.Flits[1].Kind, p.Flits[2].Kind)
	}
	for i, f := range p.Flits {
		if f.Seq != i || f.Src != 1 || f.Dst != 5 || f.PacketID != 7 {
			t.Errorf("flit %d metadata wrong: %+v", i, f)
		}
	}
	if !p.Flits[0].IsHead() || p.Flits[0].IsTail() {
		t.Error("head flit flags wrong")
	}
	if !p.Flits[2].IsTail() || p.Flits[2].IsHead() {
		t.Error("tail flit flags wrong")
	}
}

func TestNewPacketSingleFlit(t *testing.T) {
	g := paperFixed8
	p := NewPacket(1, 0, 3, bitutil.NewVec(g.LinkBits), nil)
	if p.Len() != 1 {
		t.Fatalf("packet length %d, want 1", p.Len())
	}
	f := p.Flits[0]
	if f.Kind != HeadTail || !f.IsHead() || !f.IsTail() {
		t.Errorf("single flit kind %v", f.Kind)
	}
}

func TestPayloadVecs(t *testing.T) {
	g := paperFixed8
	a, b := bitutil.NewVec(g.LinkBits), bitutil.NewVec(g.LinkBits)
	a.SetBit(0, true)
	b.SetBit(1, true)
	p := NewPacket(1, 0, 1, bitutil.NewVec(g.LinkBits), []bitutil.Vec{a, b})
	got := p.PayloadVecs()
	if len(got) != 2 || !got[0].Equal(a) || !got[1].Equal(b) {
		t.Error("PayloadVecs mismatch")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, g := range []Geometry{paperFloat32, paperFixed8} {
		h := Header{
			Dst: 63, Src: 12, PacketID: 123456789, TaskID: 987654321,
			Kind: KindResult, PairCount: 400, Ordering: Separated,
		}
		v := EncodeHeader(g, h)
		if v.Width() != g.LinkBits {
			t.Fatalf("header vec width %d", v.Width())
		}
		got := DecodeHeader(g, v)
		if got != h {
			t.Errorf("%s: round trip %+v -> %+v", g, h, got)
		}
	}
}

// TestHeaderLayout pins the encoding to the documented field layout,
// built field by field with SetField, on both link widths.
func TestHeaderLayout(t *testing.T) {
	h := Header{
		Dst: 0xfedc, Src: 0xba98, PacketID: 0xf7654321, TaskID: 0x89abcdef,
		Kind: KindTask, PairCount: 0xffff, Ordering: 250,
	}
	for _, g := range []Geometry{paperFloat32, paperFixed8} {
		want := bitutil.NewVec(g.LinkBits)
		off := 0
		for _, f := range []struct {
			width int
			val   uint64
		}{
			{16, uint64(h.Dst)}, {16, uint64(h.Src)}, {32, uint64(h.PacketID)}, {32, uint64(h.TaskID)},
			{8, uint64(h.Kind)}, {16, uint64(h.PairCount)}, {8, uint64(h.Ordering)},
		} {
			want.SetField(off, f.width, f.val)
			off += f.width
		}
		if got := EncodeHeader(g, h); !got.Equal(want) {
			t.Errorf("%s: header %v, want %v", g, got.Words(), want.Words())
		}
		if got := DecodeHeader(g, want); got != h {
			t.Errorf("%s: decoded %+v, want %+v", g, got, h)
		}
	}
}

func TestHeaderDistinctEncodings(t *testing.T) {
	g := paperFixed8
	a := EncodeHeader(g, Header{Dst: 1, PacketID: 1})
	b := EncodeHeader(g, Header{Dst: 2, PacketID: 1})
	if a.Equal(b) {
		t.Error("different headers encode identically")
	}
}

func TestDecodeHeaderWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	DecodeHeader(paperFloat32, bitutil.NewVec(128))
}
