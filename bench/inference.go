package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"nocbt"
	"nocbt/internal/hwmodel"
)

// newWorkload returns the workload of a BENCHMARK.json name.
func newWorkload(name string) (workload, error) {
	switch name {
	case "lenet-trained-4x4":
		return &inference{model: nocbt.TrainedLeNet, trained: true, fullTrace: true, inputs: 4}, nil
	case "darknet-4x4":
		return &inference{model: nocbt.DarkNet, inputs: 1}, nil
	case "serve-lenet":
		return &serving{fresh: 8}, nil
	case "topology-grid":
		return &topology{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inference runs one model on the paper platform (4×4 mesh, 2 MCs,
// fixed-8). Each timed op builds an O2 engine and runs one inference; the
// ops cycle through a fixed set of inputs, and every output must be
// bit-identical to the untimed O0 reference of the same input, which the
// set-up computes.
type inference struct {
	model   func(seed int64) *nocbt.Model
	trained bool // the model build trains (its time is train.fit_s)
	// fullTrace adds an inference with every packet traced to each round of
	// the traced run's probe. A DarkNet inference makes more spans than the
	// tracer's default capacity holds, so only LeNet sets it.
	fullTrace bool
	inputs    int // distinct inputs the ops cycle through

	m      *nocbt.Model
	o2     nocbt.Platform
	in     []*nocbt.Tensor
	ref    []simRun  // O0 reference per input
	first  []*simRun // first O2 op per input
	eng0   *nocbt.Engine
	cycles int64 // simulated cycles over the timed ops
}

// simRun is what one inference produced: its output and simulated totals.
type simRun struct {
	out    []float32
	cycles int64
	bt     int64
}

func paperPlatform(o nocbt.Ordering) (nocbt.Platform, error) {
	return nocbt.NewPlatform(append(nocbt.PaperOptions4x4MC2(nocbt.Fixed8()), nocbt.WithOrdering(o))...)
}

// setUp builds the model and the O0 references. Repetition k builds the
// model of seed+k, so a model build the library memoizes per seed (trained
// LeNet) is cold on every repetition; repetition 0 is the one the ops use.
func (w *inference) setUp(r *run, rep int) error {
	seed := r.seed + int64(rep)
	layer := "dnn.build"
	if w.trained {
		layer = "train.fit"
	}
	var m *nocbt.Model
	if err := r.call(layer, 0, r.trace, func() error { m = w.model(seed); return nil }); err != nil {
		return err
	}
	if rep == 0 && w.trained {
		r.set("train.fit_s", r.layerP50("train.fit")/1000, "s")
	}
	o0, err := paperPlatform(nocbt.O0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]*nocbt.Tensor, w.inputs)
	ref := make([]simRun, w.inputs)
	for k := range in {
		in[k] = nocbt.SampleInput(m, rng.Int63())
		err := r.call("accel.reference", 0, r.trace, func() error {
			eng, err := nocbt.NewEngine(o0, m)
			if err != nil {
				return err
			}
			out, err := eng.Infer(r.ctx, in[k])
			if err != nil {
				return err
			}
			ref[k] = simRun{out: out.Data, cycles: eng.Cycles(), bt: eng.TotalBT()}
			return nil
		})
		if err != nil {
			return fmt.Errorf("O0 reference for input %d: %w", k, err)
		}
	}
	if rep > 0 {
		return nil
	}
	if w.o2, err = paperPlatform(nocbt.O2); err != nil {
		return err
	}
	w.m, w.in, w.ref, w.first = m, in, ref, make([]*simRun, w.inputs)
	return nil
}

func (w *inference) measure(r *run) []sample {
	return r.loop(w.inputs, func(i int, traced bool) error { return w.op(r, i, traced) })
}

// op builds an O2 engine and runs input i mod inputs. The output must match
// the O0 reference bit for bit, and the simulated cycles and BT must repeat
// exactly on every op of the same input.
func (w *inference) op(r *run, i int, traced bool) error {
	k := i % w.inputs
	tid := int64(i + 1)
	var eng *nocbt.Engine
	var out *nocbt.Tensor
	err := r.call("accel.new_engine", tid, traced, func() (err error) {
		eng, err = nocbt.NewEngine(w.o2, w.m)
		return err
	})
	if err == nil {
		err = r.call("accel.infer", tid, traced, func() (err error) {
			out, err = eng.Infer(r.ctx, w.in[k])
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	w.cycles += eng.Cycles()
	got := simRun{out: out.Data, cycles: eng.Cycles(), bt: eng.TotalBT()}
	if !sameBits(got.out, w.ref[k].out) {
		return fmt.Errorf("op %d: O2 output of input %d differs from its O0 reference", i, k)
	}
	if f := w.first[k]; f == nil {
		w.first[k] = &got
		if k == 0 {
			w.eng0 = eng
		}
	} else if got.cycles != f.cycles || got.bt != f.bt {
		return fmt.Errorf("op %d: input %d took %d cycles / %d BT, earlier %d / %d",
			i, k, got.cycles, got.bt, f.cycles, f.bt)
	}
	return nil
}

// finish checks the digest — every input's O0 output, O0 and O2 cycles and
// BT — and, on traced runs, measures the per-layer metrics.
func (w *inference) finish(r *run) error {
	h := sha256.New()
	for k := range w.in {
		if w.first[k] == nil {
			r.opDone(fmt.Errorf("input %d has no passing op; the digest cannot be checked", k))
			return nil
		}
		writeFloats(h, w.ref[k].out)
		writeInts(h, w.ref[k].cycles, w.ref[k].bt, w.first[k].cycles, w.first[k].bt)
	}
	r.checkDigest(hex.EncodeToString(h.Sum(nil)))
	if !r.trace {
		return nil
	}

	inferMS := r.layerP50("accel.infer")
	r.set("accel.new_engine_ms", r.layerP50("accel.new_engine"), "ms")
	r.set("accel.infer_ms", inferMS, "ms")
	r.mu.Lock()
	var inferTotal float64
	for _, d := range r.layerMS["accel.infer"] {
		inferTotal += d
	}
	r.mu.Unlock()
	r.set("sim.kcycles_per_s", float64(w.cycles)/inferTotal, "kcycles/s") // cycles per ms = kcycles per s
	o0, o2 := w.ref[0], w.first[0]
	r.set("sim.cycles_per_inference", float64(o2.cycles), "cycles")
	r.set("sim.bt_per_inference", float64(o2.bt), "transitions")
	r.set("sim.bt_reduction_pct", 100*float64(o0.bt-o2.bt)/float64(o0.bt), "%")

	i := 0
	for _, st := range w.eng0.LayerStats() {
		if !st.OverNoC {
			continue
		}
		r.set(fmt.Sprintf("l%d.cycles", i), float64(st.Cycles), "cycles")
		r.set(fmt.Sprintf("l%d.bt", i), float64(st.BT), "transitions")
		r.set(fmt.Sprintf("l%d.flits", i), float64(st.Flits), "flits")
		i++
	}
	ec := w.eng0.EnergyCounters()
	e := hwmodel.DefaultEnergyParams().Estimate(hwmodel.Activity{
		MACBitOps:       ec.MACBitOps,
		WeightRegBits:   ec.WeightRegBits,
		DispatcherBits:  ec.FlitBits,
		LinkTransitions: ec.LinkTransitions,
	})
	r.set("hw.link_pj", e.LinkJ*1e12, "pJ")
	r.set("hw.mac_pj", e.PEMACJ*1e12, "pJ")
	r.set("hw.wreg_pj", e.WeightRegJ*1e12, "pJ")
	r.set("hw.dispatch_pj", e.DispatcherJ*1e12, "pJ")

	for k := 0; k < r.probeReps; k++ {
		for _, in := range w.in {
			if err := r.call("dnn.forward", 0, true, func() error { w.m.Forward(in); return nil }); err != nil {
				return err
			}
		}
	}
	r.set("dnn.forward_ms", r.layerP50("dnn.forward"), "ms")
	if err := flitRoundTrip(r, w.m, w.o2); err != nil {
		return err
	}
	w.probe(r)
	return nil
}

func (w *inference) close() {}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func writeFloats(h hash.Hash, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}

func writeInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}
