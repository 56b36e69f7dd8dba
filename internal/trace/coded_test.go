package trace

import (
	"testing"

	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

// codedSim builds a mesh with the named link coding installed and a
// payload-recording tracer attached.
func codedSim(t *testing.T, coding string) (*noc.Sim, *Recorder) {
	t.Helper()
	scheme, ok := flit.LookupLinkCoding(coding)
	if !ok || scheme == nil {
		t.Fatalf("link coding %q not registered", coding)
	}
	sim, err := noc.New(noc.Config{Width: 3, Height: 3, VCs: 4, BufDepth: 4, LinkBits: 16}, scheme)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	rec.RecordPayloads()
	sim.SetTrace(rec.Hook())
	return sim, rec
}

// TestCodedBTMatchesSimCounters is the coded twin of the round-trip
// cross-check: with a link coding installed, the simulator's in-line BT
// recorders count the coded wire activity — for bus-invert that includes
// the invert-line flips — so an independent scalar recount of the recorded
// raw-payload stream must re-encode per link to reproduce the totals.
func TestCodedBTMatchesSimCounters(t *testing.T) {
	for _, coding := range []string{"businvert", "gray"} {
		t.Run(coding, func(t *testing.T) {
			sim, rec := codedSim(t, coding)
			injectRandom(t, sim, 120, 11)
			scheme, _ := flit.LookupLinkCoding(coding)

			st := sim.Stats()
			for _, tc := range []struct {
				class noc.LinkClass
				want  int64
			}{
				{noc.RouterLink, st.RouterBT},
				{noc.EjectionLink, st.EjectionBT},
				{noc.InjectionLink, st.InjectionBT},
			} {
				got, err := rec.CodedBT(scheme, tc.class)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Errorf("%s: coded recount %d, simulator %d", tc.class, got, tc.want)
				}
			}
			total, err := rec.CodedBT(scheme)
			if err != nil {
				t.Fatal(err)
			}
			if want := st.RouterBT + st.EjectionBT + st.InjectionBT; total != want {
				t.Errorf("total coded recount %d, simulator class sum %d", total, want)
			}

			// The raw (uncoded) recount must NOT match a coded run's
			// counters — if it did, the coding never touched the wires and
			// this whole comparison would be vacuous.
			if raw := rec.TotalBT(); raw == total {
				t.Errorf("raw recount %d equals coded recount; coding had no wire effect", raw)
			}
		})
	}
}

// TestBusinvertBTIncludesInvertLineFlips pins the direction of the §II
// overhead accounting: on the same traffic, the bus-invert run's BT can
// only beat the plain run by at most the payload savings minus its
// invert-line flips — and the recount path must error without payloads.
func TestBusinvertBTIncludesInvertLineFlips(t *testing.T) {
	plain, _ := buildSim(t)
	injectRandom(t, plain, 120, 11)
	coded, _ := codedSim(t, "businvert")
	injectRandom(t, coded, 120, 11)

	if plainBT, codedBT := plain.TotalBT(), coded.TotalBT(); plainBT == codedBT {
		t.Errorf("businvert run BT %d identical to plain run; invert coding had no effect", codedBT)
	}

	// CodedBT without RecordPayloads must fail loudly, not recount zeros.
	bare := NewRecorder()
	scheme, _ := flit.LookupLinkCoding("businvert")
	plain2, err := noc.New(noc.Config{Width: 3, Height: 3, VCs: 4, BufDepth: 4, LinkBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	plain2.SetTrace(bare.Hook())
	injectRandom(t, plain2, 10, 3)
	if _, err := bare.CodedBT(scheme); err == nil {
		t.Error("CodedBT without recorded payloads did not error")
	}
}
