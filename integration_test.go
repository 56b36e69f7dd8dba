package nocbt

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nocbt/internal/stats"
)

// The root integration suite exercises the figure-reproduction entry points
// end to end: the concurrent sweep runner against the serial reference
// loops (determinism under concurrency), and golden files for the
// without-NoC report renderers.

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// sweepOrderings runs O0/O1/O2 on one platform and fills reduction rates —
// the old Fig. 12/13 inner loop, kept as the serial reference the
// concurrent sweep runner is tested against.
func sweepOrderings(name string, cfg Platform, model *Model, input *Tensor) ([]NoCRunResult, error) {
	var out []NoCRunResult
	var baseline float64
	for _, ord := range Orderings() {
		r, err := RunModelOnNoC(context.Background(), name, cfg, ord, model, input)
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s: %w", name, cfg.Geometry, ord, err)
		}
		if ord == O0 {
			baseline = float64(r.TotalBT)
		}
		r.ReductionPct = 100 * stats.ReductionRate(baseline, float64(r.TotalBT))
		out = append(out, r)
	}
	return out, nil
}

// runSweepSerial is the sequential counterpart of RunSweep: same grid, same
// nesting order, same arithmetic, but single-threaded direct loops with no
// model cloning or pooling. The spec must sweep all of O0/O1/O2 (the grid
// sweepOrderings hardwires).
func runSweepSerial(spec SweepSpec) ([]NoCRunResult, error) {
	spec = spec.withDefaults()
	var all []NoCRunResult
	for _, seed := range spec.Seeds {
		for _, m := range spec.Models {
			var model *Model
			switch {
			case m == LeNetModel && spec.Trained:
				model = TrainedLeNet(seed)
			case m == LeNetModel:
				model = LeNet(seed)
			case m == DarkNetModel && spec.Trained:
				model = TrainedDarkNet(seed)
			case m == DarkNetModel:
				model = DarkNet(seed)
			default:
				return nil, fmt.Errorf("nocbt: unknown sweep model %q", m)
			}
			input := SampleInput(model, seed+7)
			for _, g := range spec.Geometries {
				for _, p := range spec.Platforms {
					rs, err := sweepOrderings(p.Name, p.Build(g), model, input)
					if err != nil {
						return nil, err
					}
					for i := range rs {
						rs[i].Seed = seed
						rs[i].Workload = string(m)
					}
					all = append(all, rs...)
				}
			}
		}
	}
	return all, nil
}

// assertSweepMatchesSerial runs one spec through both paths and requires
// bit-identical rows.
func assertSweepMatchesSerial(t *testing.T, spec SweepSpec) {
	t.Helper()
	serial, err := runSweepSerial(spec)
	if err != nil {
		t.Fatalf("serial path: %v", err)
	}
	spec.Workers = 8 // force a real pool even on small machines
	concurrent, err := RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("sweep runner: %v", err)
	}
	if len(serial) != len(concurrent) {
		t.Fatalf("row counts differ: serial %d, sweep %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("row %d differs:\nserial: %+v\nsweep:  %+v", i, serial[i], concurrent[i])
		}
	}
}

// TestFig12SweepMatchesSerial proves the Fig. 12 grid comes out
// bit-identical whether run serially or on the concurrent runner.
func TestFig12SweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 NoC inferences; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full Fig. 12 grid is too slow under the race detector; " +
			"TestRunSweepDeterministicAcrossWorkerCounts covers the contract race-enabled")
	}
	assertSweepMatchesSerial(t, fig12Spec(1, false))
}

// TestFig13SweepMatchesSerial does the same for the Fig. 13 model grid,
// which shares one materialized DarkNet across its concurrent jobs.
func TestFig13SweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 NoC inferences incl. DarkNet; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full Fig. 13 grid is too slow under the race detector; " +
			"TestRunSweepDeterministicAcrossWorkerCounts covers the contract race-enabled")
	}
	assertSweepMatchesSerial(t, fig13Spec(1, false))
}

// TestRunSweepDeterministicAcrossWorkerCounts pins the public API contract
// directly: worker count must not leak into results.
func TestRunSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 NoC inferences; skipped in -short mode")
	}
	spec := SweepSpec{
		Platforms:  []NamedPlatform{DefaultPlatform()},
		Geometries: []Geometry{Fixed8()},
		Models:     []SweepModel{LeNetModel},
		Seeds:      []int64{1, 5},
	}
	one := spec
	one.Workers = 1
	a, err := RunSweep(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	many := spec
	many.Workers = 6
	b, err := RunSweep(context.Background(), many)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across worker counts:\n1: %+v\n6: %+v", a, b)
	}
	if a[0].Seed != 1 || a[len(a)-1].Seed != 5 {
		t.Errorf("seeds not recorded in grid order: %+v", a)
	}
}

func TestRunSweepRejectsUnknownModel(t *testing.T) {
	_, err := RunSweep(context.Background(), SweepSpec{Models: []SweepModel{"resnet"}})
	if err == nil || !strings.Contains(err.Error(), "resnet") {
		t.Errorf("unknown model not rejected: %v", err)
	}
}

func TestSweepReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3 NoC inferences; skipped in -short mode")
	}
	rows, err := RunSweep(context.Background(), SweepSpec{
		Platforms:  []NamedPlatform{DefaultPlatform()},
		Geometries: []Geometry{Fixed8()},
		Models:     []SweepModel{LeNetModel},
	})
	if err != nil {
		t.Fatal(err)
	}
	report := SweepReport(rows)
	for _, want := range []string{"4x4 MC2", "LeNet", "O0", "O2", "Reduction %"} {
		if !strings.Contains(report, want) {
			t.Errorf("sweep report missing %q:\n%s", want, report)
		}
	}
	// Rows carry the grid name the caller used (the -models vocabulary)
	// next to the display name.
	if rows[0].Model != "LeNet" || rows[0].Workload != string(LeNetModel) {
		t.Errorf("row model/workload = %q/%q, want LeNet/%q", rows[0].Model, rows[0].Workload, LeNetModel)
	}
}

// TestRowsAgreeAcrossPaths runs one coded torus platform, with the coding
// spelled "Gray", through RunModelOnNoC and through RunSweep at batches 1
// and 2: every row names the canonical topology and coding and counts
// router-link flit-hops, and the direct row equals the sweep's batch-1 row.
func TestRowsAgreeAcrossPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 NoC inferences; skipped in -short mode")
	}
	cfg := mustPlatform(t, WithMesh(4, 4), WithTopology("torus"), WithLinkCoding("Gray"))
	model := LeNet(1)
	direct, err := RunModelOnNoC(context.Background(), "4x4 torus", cfg, O2, model, SampleInput(model, 8))
	if err != nil {
		t.Fatal(err)
	}
	swept, err := RunSweep(context.Background(), SweepSpec{
		Platforms:  []NamedPlatform{FixedPlatform("4x4 torus", cfg)},
		Geometries: []Geometry{Fixed8()},
		Orderings:  []Ordering{O2},
		Batches:    []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range append([]NoCRunResult{direct}, swept...) {
		if r.Topology != "torus" || r.RouterFlits <= 0 || r.Coding != "gray" {
			t.Errorf("row %d: topology %q, router flits %d, coding %q; want torus, > 0, gray",
				i, r.Topology, r.RouterFlits, r.Coding)
		}
	}
	direct.Workload, direct.Seed = string(LeNetModel), 1
	if !reflect.DeepEqual(direct, swept[0]) {
		t.Errorf("direct row differs from the sweep's batch-1 row:\ndirect: %+v\nsweep:  %+v", direct, swept[0])
	}
}

// TestSweepNamesSpec pins the shared name vocabulary of btexp's sweep
// flags and btserved's sweep parameters: both spellings of each ordering
// resolve, the precision axis keeps 0 as "the geometry's own format", and
// each axis rejects an unknown name with its own message.
func TestSweepNamesSpec(t *testing.T) {
	spec, err := SweepNames{
		Platforms:  []string{" 8x8 MC4"},
		Orderings:  []string{"baseline", " O1", "separated", "hamming-nn"},
		Precisions: []int{0, 4},
	}.Spec(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Ordering{O0, O1, O2, HammingNN}; !reflect.DeepEqual(spec.Orderings, want) {
		t.Errorf("orderings = %v, want %v", spec.Orderings, want)
	}
	if len(spec.Platforms) != 1 || spec.Platforms[0].Name != "8x8 MC4" || !spec.Trained ||
		!reflect.DeepEqual(spec.Seeds, []int64{5}) || !reflect.DeepEqual(spec.Precisions, []int{0, 4}) {
		t.Errorf("spec resolved wrong: %+v", spec)
	}
	for _, tc := range []struct {
		names SweepNames
		want  string
	}{
		{SweepNames{Platforms: []string{"9x9"}}, "unknown platform"},
		{SweepNames{Formats: []string{"fp64"}}, "unknown format"},
		{SweepNames{Orderings: []string{"o9"}}, "unknown ordering"},
		{SweepNames{Codings: []string{"huffman"}}, "unknown link coding"},
		{SweepNames{Topologies: []string{"hypercube"}}, "unknown topology"},
		{SweepNames{Models: []string{"resnet"}}, "unknown sweep model"},
		{SweepNames{Batches: []int{0}}, "bad batch size"},
		{SweepNames{Precisions: []int{7}}, "bad precision"},
	} {
		if _, err := tc.names.Spec(1, false); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one containing %q", tc.names, err, tc.want)
		}
	}
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// sweepEngines runs spec with a span tracer in its context and returns the
// rows and the number of engines the sweep built: each engine takes one
// process track from the tracer.
func sweepEngines(t *testing.T, spec SweepSpec) ([]NoCRunResult, int64) {
	t.Helper()
	tr := NewTracer(64)
	tr.SetSample(1 << 62) // per-layer spans only; packet IDs stay below it
	rows, err := RunSweep(WithTracer(context.Background(), tr), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rows, tr.NextPID() - 1
}

// TestSweepGroupsShareOrderings: where orderings cannot change the
// traffic — every layer fixed-point, no in-band index flits — a sweep runs
// every ordering and coding of a grid point on one engine, and its rows
// are byte-identical to rows measured one ordering at a time, at 1 and 4
// workers: the topology grid in 3 engines, not 15, and Fig. 12's fixed-8
// rows in one engine per platform. Fig. 12's float-32 rows keep one
// engine per ordering.
func TestSweepGroupsShareOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the topology grid and Fig. 12 several times; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; internal/sweep's TestCodingGroupsMatchPerJobEngines covers the contract race-enabled")
	}
	topology, err := topologySpec(Params{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fixed, float := fig12Spec(1, false), fig12Spec(1, false)
	fixed.Geometries, float.Geometries = []Geometry{Fixed8()}, []Geometry{Float32()}
	for _, tc := range []struct {
		name    string
		spec    SweepSpec
		engines int64
	}{
		{"topology", topology, 3},
		{"fig12 fixed-8", fixed, 3},
		{"fig12 float-32", float, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One sweep per ordering: every engine carries one ordering.
			// Reductions compare rows across orderings, so they are left
			// out of the comparison; they derive from TotalBT alone.
			alone := make(map[string]NoCRunResult)
			key := func(r NoCRunResult) string {
				return fmt.Sprint(r.Platform, r.Geometry, r.Ordering, r.Coding, r.Topology, r.Workload, r.Seed, r.Batch)
			}
			for _, o := range tc.spec.Orderings {
				one := tc.spec
				one.Orderings = []Ordering{o}
				rows, err := RunSweep(context.Background(), one)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					r.ReductionPct = 0
					alone[key(r)] = r
				}
			}
			for _, workers := range []int{1, 4} {
				spec := tc.spec
				spec.Workers = workers
				rows, engines := sweepEngines(t, spec)
				if engines != tc.engines {
					t.Errorf("%d workers: the sweep built %d engines, want %d", workers, engines, tc.engines)
				}
				if len(rows) != len(alone) {
					t.Fatalf("%d workers: %d rows, %d measured one ordering at a time", workers, len(rows), len(alone))
				}
				for i, r := range rows {
					r.ReductionPct = 0
					if want := alone[key(r)]; !reflect.DeepEqual(r, want) {
						t.Errorf("%d workers, row %d:\ngrouped %+v\nalone   %+v", workers, i, r, want)
					}
				}
			}
		})
	}
}
