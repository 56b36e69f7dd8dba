package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"nocbt"
)

// topology runs the registered "topology" experiment in quick mode: 45
// sweep jobs of random-weight LeNet on 8×8/MC4, fixed-8 — five orderings ×
// three link codings × mesh, torus and cmesh — on the sweep runner's
// default worker pool (one worker per core).
type topology struct {
	refs []nocbt.NoCRunResult // serial O2 uncoded reference per topology
	res  *nocbt.Result        // first op's result
	json string               // its rendering, which every later op must repeat
	ops  int
	cpu  time.Duration
	wall time.Duration
}

// setUp measures the experiment's three O2 uncoded grid points serially on
// one worker; the experiment's parallel rows must match them.
func (w *topology) setUp(r *run, rep int) error {
	platform, ok := nocbt.LookupPaperPlatform("8x8 MC4")
	if !ok {
		return fmt.Errorf("paper platform 8x8 MC4 is not registered")
	}
	spec := nocbt.SweepSpec{
		Platforms:  []nocbt.NamedPlatform{platform},
		Geometries: []nocbt.Geometry{nocbt.Fixed8()},
		Orderings:  []nocbt.Ordering{nocbt.O2},
		Models:     []nocbt.SweepModel{nocbt.LeNetModel},
		Seeds:      []int64{r.seed},
		Codings:    []string{"none"},
		Topologies: nocbt.TopologyNames(),
		Workers:    1,
	}
	return r.call("sweep.reference", 0, r.trace, func() (err error) {
		w.refs, err = nocbt.RunSweep(r.ctx, spec)
		return err
	})
}

func (w *topology) measure(r *run) []sample {
	return r.loop(1, func(i int, traced bool) error { return w.op(r, i, traced) })
}

func (w *topology) op(r *run, i int, traced bool) error {
	cpu0, start := cpuTime(), time.Now()
	var res *nocbt.Result
	err := r.call("experiment.topology", int64(i+1), traced, func() (err error) {
		res, err = nocbt.RunExperiment(r.ctx, "topology", nocbt.Params{Seed: r.seed, Quick: true})
		return err
	})
	if err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	w.ops++
	w.cpu += cpuTime() - cpu0
	w.wall += time.Since(start)
	text, err := nocbt.Render(res, nocbt.JSON)
	if err != nil {
		return err
	}
	if w.res != nil {
		if text != w.json {
			return fmt.Errorf("op %d: result differs from op 0's", i)
		}
		return nil
	}
	if err := w.check(res); err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	w.res, w.json = res, text
	return nil
}

// check holds the experiment to its invariants: 45 rows, torus mean hops
// below mesh, and the serial reference points reproduced exactly.
func (w *topology) check(res *nocbt.Result) error {
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 45 {
		return fmt.Errorf("want one table of 45 rows")
	}
	hops, ok := res.Meta["mean_hops"].(map[string]float64)
	if !ok || !(hops["torus"] < hops["mesh"]) {
		return fmt.Errorf("torus mean hops %v not below mesh %v", hops["torus"], hops["mesh"])
	}
	for _, ref := range w.refs {
		row := w.row(res, nocbt.TopologyDisplayName(ref.Topology))
		if row == nil {
			return fmt.Errorf("no O2 uncoded row for topology %q", nocbt.TopologyDisplayName(ref.Topology))
		}
		if row[5] != any(ref.TotalBT) || row[6] != any(ref.Cycles) {
			return fmt.Errorf("%s O2 row has BT %v, cycles %v; serial reference %d, %d",
				row[1], row[5], row[6], ref.TotalBT, ref.Cycles)
		}
	}
	return nil
}

// row returns the O2 uncoded row of a topology: Model, Topology, Ordering,
// Coding, Links, Total BT, Cycles, Mean hops, Reduction %, Link power.
func (w *topology) row(res *nocbt.Result, topo string) []any {
	for _, row := range res.Tables[0].Rows {
		if row[1] == any(topo) && row[2] == any("O2") && row[3] == any("none") {
			return row
		}
	}
	return nil
}

// finish checks the digest of the rendered result and, on traced runs,
// reports the sweep runner's CPU use and the grid's simulated totals.
func (w *topology) finish(r *run) error {
	if w.res == nil {
		return nil // every op failed; they are counted already
	}
	sum := sha256.Sum256([]byte(w.json))
	r.checkDigest(hex.EncodeToString(sum[:]))
	if !r.trace {
		return nil
	}
	wallMS := float64(w.wall.Nanoseconds()) / 1e6
	r.set("sweep.cpu_util_pct", 100*w.cpu.Seconds()/(w.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "%")
	hops := w.res.Meta["mean_hops"].(map[string]float64)
	for _, t := range []string{"mesh", "torus", "cmesh"} {
		r.set("topo."+t+"_mean_hops", hops[t], "hops")
	}
	var cycles, bt float64
	rows := w.res.Tables[0].Rows
	for _, row := range rows {
		cycles += float64(row[6].(int64))
		bt += float64(row[5].(int64))
	}
	r.set("sim.cycles_per_inference", cycles/float64(len(rows)), "cycles")
	r.set("sim.bt_per_inference", bt/float64(len(rows)), "transitions")
	r.set("sim.bt_reduction_pct", w.row(w.res, "mesh")[8].(float64), "%")
	r.set("sim.kcycles_per_s", cycles*float64(w.ops)/wallMS, "kcycles/s")
	return nil
}

func (w *topology) close() {}
