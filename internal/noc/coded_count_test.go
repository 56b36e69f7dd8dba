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
// extras counted beside it, declared in one SetRows call.
func codedSim(t *testing.T, cfg noc.Config, primary string, extras ...string) *noc.Sim {
	t.Helper()
	sim, err := noc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []flit.LinkCodingScheme{lookupCoding(t, primary)}
	for _, name := range extras {
		schemes = append(schemes, lookupCoding(t, name))
	}
	if err := sim.SetRows(1, schemes...); err != nil {
		t.Fatal(err)
	}
	return sim
}

// rowBT reads row (v, k) of sim, failing the test if it has none.
func rowBT(t *testing.T, sim *noc.Sim, v, k int) int64 {
	t.Helper()
	bt, err := sim.RowBT(v, k)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestCountCodingsMatchesPrimaryRuns is the equivalence contract of the
// counted codings (SetRows' codings 1..k): every extra coding
// counts, link by link, exactly what a separate simulation of the same
// traffic with that coding installed counts, and every extra's total also
// matches an offline recount of the delivery trace. The primary counters
// must not notice the extras.
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
			cfg.CountInjection = seed == 2 // RowBT must follow TotalBT's link classes
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
							if got := sim.CodedLinkBT(i + 1)[j]; got != ls.BT {
								t.Errorf("primary %s, extra %s, link %s: %d transitions, its own run %d",
									primary, c, ls.Name, got, ls.BT)
							}
						}
						if got := rowBT(t, sim, 0, i+1); got != want.TotalBT() {
							t.Errorf("primary %s, extra %s: RowBT %d, its own run's TotalBT %d", primary, c, got, want.TotalBT())
						}
						recount, err := rec.CodedBT(lookupCoding(t, c), classes...)
						if err != nil {
							t.Fatal(err)
						}
						if got := rowBT(t, sim, 0, i+1); got != recount {
							t.Errorf("primary %s, extra %s: RowBT %d, trace recount %d", primary, c, got, recount)
						}
					}
					if err := sim.SetRows(1, lookupCoding(t, "gray")); err == nil {
						t.Error("SetRows accepted after traffic")
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
func (rejectScheme) NewCoding(_, _, _ int) (flit.LinkCoding, error) {
	return nil, errors.New("no width fits")
}

// TestCountCodingsRejectsWidth: a scheme that cannot build a link's coder
// fails the declaration with a *noc.CodingError naming the coding, its
// index and the link, and installs nothing, so a later declaration is
// still taken.
func TestCountCodingsRejectsWidth(t *testing.T) {
	sim, err := noc.New(noc.Config{Width: 2, Height: 2, VCs: 1, BufDepth: 1, LinkBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	err = sim.SetRows(2, nil, lookupCoding(t, "gray"), rejectScheme{})
	var ce *noc.CodingError
	if !errors.As(err, &ce) || ce.Coding != 2 || !strings.HasPrefix(err.Error(), `noc: link coding "reject" on link `) {
		t.Fatalf("SetRows(reject) = %v", err)
	}
	if sim.PayloadBits() != 16 {
		t.Errorf("a refused declaration left %d-bit payloads", sim.PayloadBits())
	}
	if err := sim.SetRows(1, nil, lookupCoding(t, "gray"), nil); err != nil {
		t.Fatal(err)
	}
	codedTraffic(t, sim, 1)
	if got, want := rowBT(t, sim, 0, 2), sim.TotalBT(); got != want {
		t.Errorf("plain extra after a refused declaration counts %d, the plain links %d", got, want)
	}
	if rowBT(t, sim, 0, 1) == sim.TotalBT() {
		t.Error("gray extra counts the same as the plain links: the traffic is too small to tell them apart")
	}
}

// fuzzCodings are the codings FuzzLinkCodingsMatchTrace draws from, by
// byte value modulo their count.
var fuzzCodings = []string{"none", "gray", "businvert"}

// FuzzLinkCodingsMatchTrace: whatever codings one simulation counts — in
// any order, repeats included, or none declared at all — each coding's
// transitions per link class equal the trace.Recorder's independent replay
// of the delivered flit stream under that coding, RowBT sums exactly the
// classes TotalBT counts, and coding 0's per-link counts are LinkStats'.
// The seed corpus is
// TestCountCodingsMatchesPrimaryRuns' configurations.
func FuzzLinkCodingsMatchTrace(f *testing.F) {
	for topo := uint8(0); topo < 4; topo++ {
		for _, vcs := range []uint8{0, 3} { // 1 and 4 VCs
			for seed := int64(1); seed <= 3; seed++ {
				for _, codings := range [][]byte{{0, 1, 2}, {1, 0, 2}} {
					f.Add(topo, vcs, uint8(15), codings, seed, seed == 2)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, topo, vcs, width uint8, codings []byte, seed int64, countInjection bool) {
		cfg := noc.Config{Width: 4, Height: 4, VCs: 1 + int(vcs)%4, BufDepth: 2,
			LinkBits: 8 * (1 + int(width)%32), CountInjection: countInjection}
		switch topo % 4 {
		case 1:
			cfg.Topology, cfg.VCs = "torus", max(cfg.VCs, 2) // the dateline classes need two VCs
		case 2, 3:
			cfg.Topology, cfg.Concentration = "cmesh", 2*int(topo%4-1)
		}
		var names []string
		var schemes []flit.LinkCodingScheme
		for _, b := range codings[:min(len(codings), 8)] {
			names = append(names, fuzzCodings[int(b)%len(fuzzCodings)])
			schemes = append(schemes, lookupCoding(t, names[len(names)-1]))
		}
		sim, err := noc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.SetRows(1, schemes...); err != nil {
			t.Fatal(err)
		}
		if len(schemes) == 0 { // with no codings, coding 0 is plain
			names, schemes = []string{"none"}, []flit.LinkCodingScheme{nil}
		}
		rec := trace.NewRecorder()
		rec.RecordPayloads()
		sim.SetTrace(rec.Hook())
		codedTraffic(t, sim, seed)

		links := sim.LinkStats()
		for j, ls := range links {
			if got := sim.CodedLinkBT(0)[j]; got != ls.BT {
				t.Errorf("link %s: coding 0 counts %d, LinkStats %d", ls.Name, got, ls.BT)
			}
		}
		if got, want := rowBT(t, sim, 0, 0), sim.TotalBT(); got != want {
			t.Errorf("RowBT(0, 0) %d, TotalBT %d", got, want)
		}
		for k, scheme := range schemes {
			var counted int64
			for _, class := range []noc.LinkClass{noc.RouterLink, noc.EjectionLink, noc.InjectionLink} {
				var got int64
				for j, ls := range links {
					if ls.Class == class {
						got += sim.CodedLinkBT(k)[j]
					}
				}
				want, err := rec.CodedBT(scheme, class)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: coding %d (%s), %s links: %d transitions, trace replay %d",
						cfg.Topology, k, names[k], class, got, want)
				}
				if class != noc.InjectionLink || countInjection {
					counted += want
				}
			}
			if got := rowBT(t, sim, 0, k); got != counted {
				t.Errorf("%s: RowBT(0, %d) (%s) %d, trace replay over TotalBT's classes %d",
					cfg.Topology, k, names[k], got, counted)
			}
		}
	})
}
