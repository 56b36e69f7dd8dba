package noc_test

import (
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/trace"
)

// TestSwitchBTSplitsLinkBT: a link's SwitchBT is the BT of exactly the
// crossings that change packet — every head flit's, and every flit's whose
// packet differs from the link's previous flit's — recounted from the
// delivery trace, on mesh, torus and cmesh. It never exceeds the link's BT,
// and a single packet's stream switches only on its head flit.
func TestSwitchBTSplitsLinkBT(t *testing.T) {
	for _, cfg := range []noc.Config{
		{Width: 4, Height: 4, VCs: 4, BufDepth: 2, LinkBits: 128},
		{Width: 4, Height: 4, Topology: "torus", VCs: 2, BufDepth: 2, LinkBits: 128},
		{Width: 4, Height: 4, Topology: "cmesh", Concentration: 4, VCs: 2, BufDepth: 2, LinkBits: 128},
	} {
		t.Run(noc.TopologyDisplayName(cfg.Topology), func(t *testing.T) {
			sim := codedSim(t, cfg, "none")
			rec := trace.NewRecorder()
			sim.SetTrace(rec.Hook())
			codedTraffic(t, sim, 3)

			want, heads := make(map[string]int64), make(map[string]int64)
			last := make(map[string]uint64)
			for _, e := range rec.Events() {
				prev, crossed := last[e.Link]
				if e.Seq == 0 {
					heads[e.Link] += int64(e.Transitions)
				}
				if e.Seq == 0 || !crossed || e.PacketID != prev {
					want[e.Link] += int64(e.Transitions)
				}
				last[e.Link] = e.PacketID
			}
			var switched, total int64
			for _, ls := range sim.LinkStats() {
				if ls.SwitchBT > ls.BT {
					t.Errorf("link %s: SwitchBT %d above its BT %d", ls.Name, ls.SwitchBT, ls.BT)
				}
				if ls.SwitchBT < heads[ls.Name] {
					t.Errorf("link %s: SwitchBT %d below its head flits' BT %d", ls.Name, ls.SwitchBT, heads[ls.Name])
				}
				if ls.SwitchBT != want[ls.Name] {
					t.Errorf("link %s: SwitchBT %d, trace recount %d", ls.Name, ls.SwitchBT, want[ls.Name])
				}
				switched, total = switched+ls.SwitchBT, total+ls.BT
			}
			if switched == 0 || switched == total {
				t.Errorf("SwitchBT sums to %d of %d BT: the traffic does not split it", switched, total)
			}
		})
	}
	t.Run("single-packet", switchSinglePacket)
}

// switchSinglePacket: a lone packet's stream changes packet only on its
// head flit, so every link it crosses has SwitchBT equal to the head
// flit's BT and the body and tail flits' BT outside it. A second packet
// with the same ID on the same route switches again at its head.
func switchSinglePacket(t *testing.T) {
	sim, err := noc.New(noc.Config{Width: 4, Height: 4, VCs: 2, BufDepth: 2, LinkBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	sim.SetTrace(rec.Hook())
	for round, words := range [][]uint64{
		{0x0f0f, 0xff00ff, 0x1234_5678, 0xfedc_ba98_7654_3210},
		{0xf0f0_0000, 0x1, 0xffff, 0x8000_0000_0000_0000},
	} {
		vecs := make([]bitutil.Vec, len(words))
		for i, w := range words {
			vecs[i] = bitutil.NewVec(64)
			vecs[i].SetField(0, 64, w)
		}
		if err := sim.Inject(flit.NewPacket(9, 0, 15, vecs[0], vecs[1:])); err != nil {
			t.Fatal(err)
		}
		if err := sim.Drain(1000); err != nil {
			t.Fatal(err)
		}
		heads := make(map[string]int64)
		for _, e := range rec.Events() {
			if e.Seq == 0 {
				heads[e.Link] += int64(e.Transitions)
			}
		}
		crossed := 0
		for _, ls := range sim.LinkStats() {
			if ls.Flits == 0 {
				continue
			}
			crossed++
			if ls.SwitchBT != heads[ls.Name] || ls.SwitchBT >= ls.BT {
				t.Errorf("packet %d, link %s: SwitchBT %d, BT %d, head flits' BT %d", round, ls.Name, ls.SwitchBT, ls.BT, heads[ls.Name])
			}
		}
		if want := 8; crossed != want { // injection, 6 router hops, ejection
			t.Errorf("packet %d: the stream crossed %d links, want %d", round, crossed, want)
		}
	}
}
