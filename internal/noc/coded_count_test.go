package noc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/trace"
)

// codedTraffic drives a reproducible random workload through sim: packets
// of 1–4 flits with random 128-bit payloads between random terminals.
func codedTraffic(t *testing.T, sim *noc.Sim, seed int64) {
	t.Helper()
	cfg := sim.Config()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 150; i++ {
		src, dst := rng.Intn(cfg.Nodes()), rng.Intn(cfg.Nodes())
		vecs := make([]bitutil.Vec, 1+rng.Intn(4))
		for j := range vecs {
			vecs[j] = bitutil.NewVec(cfg.LinkBits)
			for off := 0; off < cfg.LinkBits; off += 64 {
				vecs[j].SetField(off, min(64, cfg.LinkBits-off), rng.Uint64())
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

func lookupCoding(t *testing.T, name string) flit.LinkCodingScheme {
	t.Helper()
	scheme, ok := flit.LookupLinkCoding(name)
	if !ok {
		t.Fatalf("link coding %q not registered", name)
	}
	return scheme
}

// codedSim builds a simulator with primary installed on its links and
// extras counted beside it.
func codedSim(t *testing.T, cfg noc.Config, primary string, extras ...string) *noc.Sim {
	t.Helper()
	sim, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetLinkCoding(lookupCoding(t, primary)); err != nil {
		t.Fatal(err)
	}
	schemes := make([]flit.LinkCodingScheme, len(extras))
	for i, name := range extras {
		schemes[i] = lookupCoding(t, name)
	}
	if err := sim.CountCodings(schemes...); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestCountCodingsMatchesPrimaryRuns is the equivalence contract of
// CountCodings: every extra coding counts, link by link, exactly what a
// separate simulation of the same traffic with that coding installed
// counts, and gray and bus-invert totals also match an offline recount of
// the delivery trace. The primary counters must not notice the extras.
func TestCountCodingsMatchesPrimaryRuns(t *testing.T) {
	codings := []string{"none", "gray", "businvert"}
	var cfgs []noc.Config
	for _, topo := range []struct {
		name string
		conc int
	}{{"mesh", 0}, {"torus", 0}, {"cmesh", 2}, {"cmesh", 4}} {
		for _, vcs := range []int{1, 4} {
			if topo.name == "torus" && vcs == 1 {
				vcs = 2 // the torus's dateline classes need two VCs
			}
			cfgs = append(cfgs, noc.Config{Width: 4, Height: 4, Topology: topo.name, Concentration: topo.conc,
				VCs: vcs, BufDepth: 2, LinkBits: 128})
		}
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := cfg
			cfg.CountInjection = seed == 2 // CodedBT must follow TotalBT's link classes
			t.Run(fmt.Sprintf("%s-c%d-vc%d/seed%d", cfg.Topology, cfg.Concentration, cfg.VCs, seed), func(t *testing.T) {
				ref := make(map[string]*noc.Sim, len(codings))
				for _, c := range codings {
					ref[c] = codedSim(t, cfg, c)
					codedTraffic(t, ref[c], seed)
				}
				for _, primary := range []string{"none", "gray"} {
					var extras []string
					for _, c := range codings {
						if c != primary {
							extras = append(extras, c)
						}
					}
					sim := codedSim(t, cfg, primary, extras...)
					rec := trace.NewRecorder()
					rec.RecordPayloads()
					sim.SetTrace(rec.Hook())
					codedTraffic(t, sim, seed)

					if got, want := sim.LinkStats(), ref[primary].LinkStats(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("primary %s: link counters moved with extra codings installed", primary)
					}
					classes := []noc.LinkClass{noc.RouterLink, noc.EjectionLink}
					if cfg.CountInjection {
						classes = append(classes, noc.InjectionLink)
					}
					for i, c := range extras {
						want := ref[c]
						for j, ls := range want.LinkStats() {
							if got := sim.CodedLinkBT(i)[j]; got != ls.BT {
								t.Errorf("primary %s, extra %s, link %s: %d transitions, its own run %d",
									primary, c, ls.Name, got, ls.BT)
							}
						}
						if got := sim.CodedBT(i); got != want.TotalBT() {
							t.Errorf("primary %s, extra %s: CodedBT %d, its own run's TotalBT %d", primary, c, got, want.TotalBT())
						}
						if c == "none" {
							continue
						}
						recount, err := rec.CodedBT(lookupCoding(t, c), classes...)
						if err != nil {
							t.Fatal(err)
						}
						if got := sim.CodedBT(i); got != recount {
							t.Errorf("primary %s, extra %s: CodedBT %d, trace recount %d", primary, c, got, recount)
						}
					}
					if err := sim.CountCodings(lookupCoding(t, "gray")); err == nil {
						t.Error("CountCodings accepted after traffic")
					}
				}
			})
		}
	}
}

// rejectScheme is a link coding that refuses every width.
type rejectScheme struct{}

func (rejectScheme) Name() string       { return "reject" }
func (rejectScheme) ExtraLines(int) int { return 0 }
func (rejectScheme) New(int) (flit.LinkCoding, error) {
	return nil, errors.New("no width fits")
}

// TestCountCodingsRejectsWidth: a scheme that cannot build a link's coder
// fails the install with SetLinkCoding's text and installs nothing from
// that call, so earlier extras keep their numbers.
func TestCountCodingsRejectsWidth(t *testing.T) {
	sim := codedSim(t, noc.Config{Width: 2, Height: 2, VCs: 1, BufDepth: 1, LinkBits: 16}, "none", "gray")
	err := sim.CountCodings(nil, rejectScheme{})
	if err == nil || !strings.HasPrefix(err.Error(), `noc: link coding "reject" on link `) {
		t.Fatalf("CountCodings(reject) = %v", err)
	}
	if err := sim.CountCodings(nil); err != nil {
		t.Fatal(err)
	}
	codedTraffic(t, sim, 1)
	if got, want := sim.CodedBT(1), sim.TotalBT(); got != want {
		t.Errorf("plain extra after a refused install counts %d, the plain links %d", got, want)
	}
	if sim.CodedBT(0) == sim.TotalBT() {
		t.Error("gray extra counts the same as the plain links: the traffic is too small to tell them apart")
	}
}
