package flit

import (
	"math/rand"
	"testing"

	"nocbt/internal/bitutil"
)

func TestNewPoolValidation(t *testing.T) {
	for _, bad := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPool(%d) accepted", bad)
				}
			}()
			NewPool(bad)
		}()
	}
	if p := NewPool(128); p.Width() != 128 {
		t.Errorf("Width = %d, want 128", p.Width())
	}
}

// TestPoolVecZeroed: a recycled backing store must be indistinguishable from
// a fresh NewVec — pools change lifetime, never values.
func TestPoolVecZeroed(t *testing.T) {
	p := NewPool(128)
	v := p.Vec()
	v.SetField(0, 64, ^uint64(0))
	v.SetField(64, 64, ^uint64(0))
	p.PutVec(v)
	got := p.Vec()
	if !got.Zero() {
		t.Fatalf("recycled vec not zeroed: %s", got)
	}
	if got.Width() != 128 {
		t.Fatalf("recycled vec width %d", got.Width())
	}
	gets, reuses := p.Stats()
	if gets != 2 || reuses != 1 {
		t.Errorf("Stats = (%d, %d), want (2, 1)", gets, reuses)
	}
}

// TestPoolDropsForeignVecs: vectors of another width never enter the
// free-list (they would corrupt every later packet).
func TestPoolDropsForeignVecs(t *testing.T) {
	p := NewPool(128)
	p.PutVec(bitutil.NewVec(64))
	v := p.Vec()
	if v.Width() != 128 {
		t.Fatalf("pool served a %d-bit vec", v.Width())
	}
	if _, reuses := p.Stats(); reuses != 0 {
		t.Error("foreign vec entered the free-list")
	}
}

// TestPoolPacketMatchesNewPacket: for every flit count, a pooled packet must
// be field-for-field identical to the NewPacket equivalent — including after
// the pool has recycled a previous generation of packets.
func TestPoolPacketMatchesNewPacket(t *testing.T) {
	p := NewPool(128)
	rng := rand.New(rand.NewSource(51))
	build := func(id uint64, nPayloads int) (*Packet, *Packet) {
		mk := func() (bitutil.Vec, []bitutil.Vec) {
			hdr := p.Vec()
			hdr.SetField(0, 64, rng.Uint64())
			payloads := make([]bitutil.Vec, nPayloads)
			for i := range payloads {
				payloads[i] = p.Vec()
				payloads[i].SetField(0, 64, uint64(id)*1000+uint64(i))
			}
			return hdr, payloads
		}
		hdr1, pl1 := mk()
		pooled := p.Packet(id, 3, 7, hdr1, pl1)
		// Rebuild identical content for the reference packet.
		hdr2 := hdr1.Clone()
		pl2 := make([]bitutil.Vec, len(pl1))
		for i := range pl1 {
			pl2[i] = pl1[i].Clone()
		}
		ref := NewPacket(id, 3, 7, hdr2, pl2)
		return pooled, ref
	}
	for round := 0; round < 3; round++ { // round 0 cold, later rounds recycled
		for _, nPayloads := range []int{0, 1, 4} {
			pooled, ref := build(uint64(round*10+nPayloads), nPayloads)
			if pooled.ID != ref.ID || pooled.Src != ref.Src || pooled.Dst != ref.Dst || len(pooled.Flits) != len(ref.Flits) {
				t.Fatalf("round %d: packet fields diverge", round)
			}
			if !pooled.Pooled() {
				t.Fatal("pool-built packet not marked pooled")
			}
			if ref.Pooled() {
				t.Fatal("NewPacket marked pooled")
			}
			for i, f := range pooled.Flits {
				rf := ref.Flits[i]
				if f.Kind != rf.Kind || f.PacketID != rf.PacketID || f.Seq != rf.Seq ||
					f.Src != rf.Src || f.Dst != rf.Dst || !f.Payload.Equal(rf.Payload) {
					t.Fatalf("round %d: flit %d diverges from NewPacket reference", round, i)
				}
			}
			p.Release(pooled)
		}
	}
}

// TestPoolNeverAliasesLiveStores is the aliasing pin: backing stores that
// were never handed back must be untouchable through anything the pool
// serves later. Half the vectors are retained live, half released; the pool
// is then drained and every new vector mutated — the live half must keep its
// exact bits.
func TestPoolNeverAliasesLiveStores(t *testing.T) {
	p := NewPool(128)
	const n = 32
	live := make([]bitutil.Vec, 0, n/2)
	for i := 0; i < n; i++ {
		v := p.Vec()
		v.SetField(0, 64, uint64(i)|0xA5A5_0000_0000_0000)
		if i%2 == 0 {
			live = append(live, v)
		} else {
			p.PutVec(v)
		}
	}
	for i := 0; i < n; i++ {
		v := p.Vec()
		v.SetField(0, 64, ^uint64(0))
		v.SetField(64, 64, ^uint64(0))
	}
	for k, v := range live {
		want := uint64(2*k) | 0xA5A5_0000_0000_0000
		if got := v.Field(0, 64); got != want {
			t.Fatalf("live vec %d clobbered: %#x, want %#x", k, got, want)
		}
	}
}

// TestPoolReleaseRecyclesFlits: released flits and shells come back on the
// next build instead of fresh allocations.
func TestPoolReleaseRecyclesFlits(t *testing.T) {
	p := NewPool(128)
	hdr := p.Vec()
	pkt := p.Packet(1, 0, 1, hdr, []bitutil.Vec{p.Vec(), p.Vec()})
	f0 := pkt.Flits[0]
	p.Release(pkt)
	avg := testing.AllocsPerRun(10, func() {
		h := p.Vec()
		q := p.Packet(2, 0, 1, h, nil)
		p.Release(q)
	})
	if avg != 0 {
		t.Errorf("warm Packet/Release allocates %.1f objects, want 0", avg)
	}
	// The released flit struct itself was zeroed for its next life.
	if f0.Payload.Width() != 0 || f0.Kind != 0 || f0.PacketID != 0 {
		t.Error("released flit not cleared")
	}
}

// TestPoolReleaseShell: shell-only release recycles the packet struct and
// its Flits slice but leaves the flits alive (they are still in flight when
// the source NI calls this); non-pooled packets are ignored.
func TestPoolReleaseShell(t *testing.T) {
	p := NewPool(128)
	hdr := p.Vec()
	body := p.Vec()
	body.SetField(0, 64, 0xBEEF)
	pkt := p.Packet(9, 0, 1, hdr, []bitutil.Vec{body})
	flits := append([]*Flit(nil), pkt.Flits...)
	p.ReleaseShell(pkt)
	// The in-flight flits keep their payloads.
	if got := flits[1].Payload.Field(0, 64); got != 0xBEEF {
		t.Fatalf("in-flight flit payload clobbered: %#x", got)
	}
	// The shell comes back for the next reassembly.
	shell := p.Shell()
	if shell != pkt {
		t.Error("released shell not recycled")
	}
	if len(shell.Flits) != 0 || shell.ID != 0 {
		t.Error("recycled shell not cleared")
	}

	// Caller-owned NewPacket shells must never enter the pool: tests and
	// callers may hold references to them.
	own := NewPacket(10, 0, 1, bitutil.NewVec(128), nil)
	p.ReleaseShell(own)
	if own.ID != 10 || len(own.Flits) != 1 {
		t.Error("ReleaseShell modified a caller-owned packet")
	}
	if next := p.Shell(); next == own {
		t.Error("caller-owned packet entered the pool")
	}
}

// TestPoolReleaseFlit covers the single-flit release path.
func TestPoolReleaseFlit(t *testing.T) {
	p := NewPool(128)
	v := p.Vec()
	v.SetField(0, 8, 0xFF)
	f := &Flit{Kind: Body, Payload: v}
	p.ReleaseFlit(f)
	got := p.Vec()
	if !got.Zero() {
		t.Error("payload of released flit not zeroed on reuse")
	}
	p.ReleaseFlit(nil) // must not panic
}

// TestPoolWarmUpAllocatesInBlocks: a fresh pool serves the flits, vectors
// and shells of a growing working set from blocks, not one heap object
// each, and a fresh shell's flit array already fits the longest packet
// built. Recycling still hands out zeroed vectors.
func TestPoolWarmUpAllocatesInBlocks(t *testing.T) {
	const packets, payloads = 200, 4
	vecs := make([]bitutil.Vec, payloads)
	held := make([]*Packet, 0, packets)
	allocs := testing.AllocsPerRun(3, func() {
		p := NewPool(128)
		held = held[:0]
		for i := range packets {
			for j := range vecs {
				vecs[j] = p.Vec()
				vecs[j].SetField(0, 64, ^uint64(0))
			}
			held = append(held, p.Packet(uint64(i), 0, 1, p.Vec(), vecs))
		}
		if sh := p.Shell(); cap(sh.Flits) != payloads+1 {
			t.Fatalf("fresh shell holds %d flits, the longest packet %d", cap(sh.Flits), payloads+1)
		}
		p.Release(held...)
		if v := p.Vec(); !v.Zero() {
			t.Fatal("recycled block vector not zeroed")
		}
	})
	// One object per flit, vector and shell would be 2,201 allocations,
	// and growing each shell's flit array by append four more per packet.
	if objects := packets * (2*(payloads+1) + 1); allocs > float64(objects)/5 {
		t.Errorf("%.0f allocations for %d pooled objects", allocs, objects)
	} else {
		t.Logf("%.0f allocations for %d pooled objects", allocs, objects)
	}
}
