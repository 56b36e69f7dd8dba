package accel

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/trace"
)

// TestStrategyCombosBitIdenticalToSerialO0 is the satellite equivalence
// suite: every (ordering strategy × link coding) combination must produce
// inference outputs bit-identical to the plain O0 serial run. Orderings
// only permute order-invariant MAC operands (fixed-8 runs an exact integer
// reduction); codings only change how the wires toggle, never the decoded
// payload — so any deviation is a correctness bug in the strategy plumbing.
func TestStrategyCombosBitIdenticalToSerialO0(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := tinyNet(rng)
	x := testInput(m, 22)

	baseCfg := Mesh4x4MC2(paperFixed8)
	baseEng := mustNew(t, baseCfg, m)
	want, err := baseEng.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	baseBT := baseEng.TotalBT()

	for _, strat := range flit.OrderingStrategies() {
		for _, coding := range flit.LinkCodingNames() {
			name := strat.Name() + "+" + coding
			cfg := Mesh4x4MC2(paperFixed8)
			cfg.Ordering = strat.ID()
			cfg.LinkCoding = coding
			eng, err := New(cfg, m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out, err := eng.Infer(context.Background(), x)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for j := range want.Data {
				if out.Data[j] != want.Data[j] {
					t.Fatalf("%s output[%d] = %v, O0 serial = %v (equivalence broken)",
						name, j, out.Data[j], want.Data[j])
				}
			}
			// Overhead visibility: a non-trivial coding must actually move
			// the BT accounting relative to the same ordering uncoded.
			if strat.ID() == flit.Baseline && coding != "none" && eng.TotalBT() == baseBT {
				t.Errorf("%s BT %d identical to uncoded O0; coding never touched the recorders", name, eng.TotalBT())
			}
		}
	}
}

// TestBusinvertEngineBTMatchesTraceRecount cross-checks the engine-level
// bus-invert accounting against a scalar recount of the recorded flit
// stream (the coded twin of the trace round-trip test): replaying every
// link's raw payload sequence through a fresh bus-invert encoder must
// reproduce Engine.TotalBT exactly — proving the reported BT includes the
// invert-line flips, since the recount's encoder generates them too.
func TestBusinvertEngineBTMatchesTraceRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := tinyNet(rng)
	x := testInput(m, 24)

	cfg := Mesh4x4MC2(paperFixed8)
	cfg.LinkCoding = "businvert"
	eng := mustNew(t, cfg, m)
	rec := trace.NewRecorder()
	rec.RecordPayloads()
	eng.SetTrace(rec.Hook())
	if _, err := eng.Infer(context.Background(), x); err != nil {
		t.Fatal(err)
	}

	scheme, ok := flit.LookupLinkCoding("businvert")
	if !ok || scheme == nil {
		t.Fatal("businvert not registered")
	}
	// Engine.TotalBT counts router output ports: router→router plus
	// ejection links (CountInjection is off on the paper platforms).
	recount, err := rec.CodedBT(scheme, noc.RouterLink, noc.EjectionLink)
	if err != nil {
		t.Fatal(err)
	}
	if recount != eng.TotalBT() {
		t.Errorf("coded recount %d != engine BT %d; invert-line accounting diverged", recount, eng.TotalBT())
	}
	// The raw payload recount must differ: equality would mean the
	// invert coding never changed a single wire pattern.
	if raw := rec.TotalBT(noc.RouterLink, noc.EjectionLink); raw == recount {
		t.Errorf("raw recount %d equals coded recount; comparison is vacuous", raw)
	}
}

// TestEngineRejectsUnknownStrategyAndCoding pins the descriptive errors.
func TestEngineRejectsUnknownStrategyAndCoding(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := tinyNet(rng)

	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = flit.Ordering(99)
	if _, err := New(cfg, m); err == nil || !strings.Contains(err.Error(), "unknown ordering") {
		t.Errorf("unregistered ordering = %v, want a descriptive error", err)
	}

	cfg = Mesh4x4MC2(paperFixed8)
	cfg.LinkCoding = "huffman"
	if _, err := New(cfg, m); err == nil || !strings.Contains(err.Error(), "unknown link coding") {
		t.Errorf("unregistered coding = %v, want a descriptive error", err)
	}
}

// TestEngineCountCodingsMatchesCodedEngines: the extra codings an engine
// counts beside its own equal, inference for inference, the TotalBT of
// engines that run each coding as their own — for every ordering, under a
// plain and under a gray primary. Unknown names and late installs fail.
func TestEngineCountCodingsMatchesCodedEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := tinyNet(rng)
	x := testInput(m, 28)
	for _, strat := range flit.OrderingStrategies() {
		bt := make(map[string]int64)
		for _, coding := range flit.LinkCodingNames() {
			cfg := Mesh4x4MC2(paperFixed8)
			cfg.Ordering, cfg.LinkCoding = strat.ID(), coding
			eng := mustNew(t, cfg, m)
			for range 2 {
				if _, err := eng.Infer(context.Background(), x); err != nil {
					t.Fatal(err)
				}
			}
			bt[coding] = eng.TotalBT()
		}
		for _, primary := range []string{"none", "gray"} {
			cfg := Mesh4x4MC2(paperFixed8)
			cfg.Ordering, cfg.LinkCoding = strat.ID(), primary
			eng := mustNew(t, cfg, m)
			var extras []string
			for _, coding := range flit.LinkCodingNames() {
				if coding != primary {
					extras = append(extras, coding)
				}
			}
			if err := eng.Count(nil, extras); err != nil {
				t.Fatal(err)
			}
			for range 2 { // counts accumulate across inferences, like TotalBT
				if _, err := eng.Infer(context.Background(), x); err != nil {
					t.Fatal(err)
				}
			}
			if got := eng.TotalBT(); got != bt[primary] {
				t.Errorf("%s/%s: TotalBT %d with extras, want %d", strat.Name(), primary, got, bt[primary])
			}
			for i, coding := range extras {
				if got := rowBT(t, eng, 0, i+1); got != bt[coding] {
					t.Errorf("%s/%s: RowBT(%s) %d, want its own engine's %d", strat.Name(), primary, coding, got, bt[coding])
				}
			}
			if err := eng.Count(nil, []string{"gray"}); err == nil {
				t.Errorf("%s/%s: Count accepted after an inference", strat.Name(), primary)
			}
		}
	}
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if err := eng.Count(nil, []string{"huffman"}); err == nil || !strings.Contains(err.Error(), "unknown link coding") {
		t.Errorf("Count(huffman) = %v, want a descriptive error", err)
	}
}
