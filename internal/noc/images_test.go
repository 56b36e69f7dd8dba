package noc_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

// imageTraffic drives the random workload of codedTraffic's shape through
// sim, with payloads of images wire images each: image v of every flit
// carries the bits a simulation of image v alone would carry. With only
// set, sim carries that one image's bits on a one-image payload.
func imageTraffic(t *testing.T, sim *noc.Sim, seed int64, images, only int) {
	t.Helper()
	cfg := sim.Config()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 150; i++ {
		src, dst := rng.Intn(cfg.Nodes()), rng.Intn(cfg.Nodes())
		vecs := make([]bitutil.Vec, 1+rng.Intn(4))
		for j := range vecs {
			vecs[j] = bitutil.NewVec(sim.PayloadBits())
			for v := 0; v < images; v++ {
				img := vecs[j].Image(0, cfg.LinkBits)
				if only < 0 {
					img = vecs[j].Image(v, cfg.LinkBits)
				}
				for off := 0; off < cfg.LinkBits; off += 64 {
					w := rng.Uint64()
					if only < 0 || only == v {
						img.SetField(off, min(64, cfg.LinkBits-off), w)
					}
				}
			}
		}
		if err := sim.Inject(flit.NewPacket(uint64(i+1), src, dst, vecs[0], vecs[1:])); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Drain(1_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestImagesMatchSeparateSims is the equivalence contract of wire images
// (SetImages): coding k on image v counts exactly what a one-image
// simulation of image v's bits with coding k counts, and image 0 alone
// drives Stats and LinkStats, on every topology, on links that are and are
// not a whole number of words wide, whether the images are set before or
// after the counted codings are installed.
func TestImagesMatchSeparateSims(t *testing.T) {
	const images = 3
	codings := []string{"none", "gray", "businvert"}
	for _, topo := range []struct {
		name string
		conc int
	}{{"mesh", 0}, {"torus", 0}, {"cmesh", 4}} {
		for _, bits := range []int{128, 136} {
			cfg := noc.Config{Width: 4, Height: 4, Topology: topo.name, Concentration: topo.conc,
				VCs: 2, BufDepth: 2, LinkBits: bits, CountInjection: bits == 136}
			t.Run(fmt.Sprintf("%s/%d", topo.name, bits), func(t *testing.T) {
				ref := make([]*noc.Sim, images)
				for v := range ref {
					ref[v] = codedSim(t, cfg, codings[0], codings[1:]...)
					imageTraffic(t, ref[v], 5, images, v)
				}
				for _, imagesFirst := range []bool{true, false} {
					sim, err := noc.New(cfg, lookupCoding(t, codings[0]))
					if err != nil {
						t.Fatal(err)
					}
					install := func() {
						if err := sim.SetLinkCodings(1, lookupCoding(t, codings[1]), lookupCoding(t, codings[2])); err != nil {
							t.Fatal(err)
						}
					}
					if !imagesFirst {
						install()
					}
					if err := sim.SetImages(images); err != nil {
						t.Fatal(err)
					}
					if imagesFirst {
						install()
					}
					if want := (images-1)*192 + bits; bits == 136 && sim.PayloadBits() != want {
						t.Fatalf("payload %d bits, want %d", sim.PayloadBits(), want)
					}
					imageTraffic(t, sim, 5, images, -1)
					if sim.Stats() != ref[0].Stats() || fmt.Sprint(sim.LinkStats()) != fmt.Sprint(ref[0].LinkStats()) {
						t.Errorf("images first %v: Stats or LinkStats are not image 0's", imagesFirst)
					}
					for v := range ref {
						for k := range codings {
							if got, want := sim.ImageBT(v, k), ref[v].CodedBT(k); got != want {
								t.Errorf("images first %v: image %d coding %s counted %d, its own simulation %d",
									imagesFirst, v, codings[k], got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestSetImagesRejects: wire images are set before any traffic, at least
// one, never under a payload trace, and a multi-image simulator takes
// only payloads of its full width.
func TestSetImagesRejects(t *testing.T) {
	cfg := noc.Config{Width: 2, Height: 2, VCs: 2, BufDepth: 2, LinkBits: 128}
	trace := func(int64, string, noc.LinkClass, *flit.Flit) {}
	for _, tc := range []struct {
		name  string
		setup func(*noc.Sim) error
		k     int
		want  string
	}{
		{"zero", nil, 0, "need at least 1"},
		{"traced", func(s *noc.Sim) error { return s.SetTrace(trace) }, 2, "under a payload trace"},
		{"after traffic", func(s *noc.Sim) error {
			hdr := bitutil.NewVec(128)
			return s.Inject(flit.NewPacket(1, 0, 3, hdr, nil))
		}, 2, "before any traffic"},
	} {
		sim, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.setup != nil {
			if err := tc.setup(sim); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.SetImages(tc.k); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SetImages(%d) = %v, want an error containing %q", tc.name, tc.k, err, tc.want)
		}
	}
	sim, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetImages(2); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetTrace(trace); err == nil || !strings.Contains(err.Error(), "2 wire images") {
		t.Errorf("SetTrace on two images = %v, want a refusal", err)
	}
	if err := sim.Inject(flit.NewPacket(1, 0, 3, bitutil.NewVec(128), nil)); err == nil || !strings.Contains(err.Error(), "payloads are 256") {
		t.Errorf("one-image payload on a two-image simulator: %v", err)
	}
	if w := sim.Pool().Vec().Width(); w != 256 {
		t.Errorf("pool serves %d-bit vectors, want 256", w)
	}
}
