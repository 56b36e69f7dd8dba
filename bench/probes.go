package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nocbt"
	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/obs"
	"nocbt/internal/quant"
)

// The probes below run only on traced runs. Each inference they make is
// checked against the O0 reference and counted as an attempted op.

// timedPacket is one packet seen crossing its injection link: the cycle its
// head crossed and the payloads of its flits in order.
type timedPacket struct {
	at       int64
	id       uint64
	src, dst int
	payloads []bitutil.Vec
}

// recording is input 0's traffic as it crossed the injection links, in the
// order the heads crossed, and the flit-hops the engine made carrying it.
type recording struct {
	mesh noc.Config
	pkts []timedPacket
	hops int64
}

// record runs input 0 with Engine.SetTrace installed and keeps every
// packet's injection-link crossing.
func (w *inference) record(r *run) (recording, error) {
	eng, err := nocbt.NewEngine(w.o2, w.m)
	if err != nil {
		return recording{}, err
	}
	var pkts []timedPacket
	open := map[uint64]*timedPacket{}
	eng.SetTrace(func(cycle int64, _ string, class noc.LinkClass, f *flit.Flit) {
		if class != noc.InjectionLink {
			return
		}
		p := open[f.PacketID]
		if p == nil {
			p = &timedPacket{at: cycle, id: f.PacketID, src: f.Src, dst: f.Dst}
			open[f.PacketID] = p
		}
		p.payloads = append(p.payloads, f.Payload.Clone())
		if f.IsTail() {
			pkts = append(pkts, *p)
			delete(open, f.PacketID)
		}
	})
	out, err := eng.Infer(r.ctx, w.in[0])
	if err != nil {
		return recording{}, err
	}
	if !sameBits(out.Data, w.ref[0].out) {
		return recording{}, fmt.Errorf("recorded inference differs from the O0 reference")
	}
	if len(pkts) == 0 {
		return recording{}, fmt.Errorf("no packet crossed an injection link")
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].at < pkts[j].at })
	return recording{mesh: eng.Config().Mesh, pkts: pkts, hops: eng.NoCStats().RouterFlits}, nil
}

// replay replays a recording into a bare simulator of the same mesh —
// Inject, Step and PopEjected, no accelerator around it — timed as
// noc.replay. Its flit-hops must equal the engine's RouterFlits.
func replay(r *run, rec recording) error {
	packets := make([]*flit.Packet, len(rec.pkts))
	for i, p := range rec.pkts {
		// The simulator recycles the payloads of ejected packets, so every
		// replay injects copies.
		payloads := make([]bitutil.Vec, len(p.payloads))
		for j, v := range p.payloads {
			payloads[j] = v.Clone()
		}
		packets[i] = flit.NewPacket(p.id, p.src, p.dst, payloads[0], payloads[1:])
	}
	sim, err := noc.New(rec.mesh)
	if err != nil {
		return err
	}
	if err := r.call("noc.replay", 0, true, func() error { return replayInto(sim, rec.pkts, packets) }); err != nil {
		return err
	}
	hops := sim.Stats().RouterFlits
	r.set("noc.flit_hops", float64(hops), "flits")
	if hops != rec.hops {
		return fmt.Errorf("replay made %d flit-hops, the engine %d", hops, rec.hops)
	}
	return nil
}

// replayInto injects each packet at the cycle its head crossed the
// injection link in the recorded run and steps until the mesh is empty.
func replayInto(sim *noc.Sim, pkts []timedPacket, packets []*flit.Packet) error {
	nodes := sim.Config().Nodes()
	limit := pkts[len(pkts)-1].at + 1_000_000
	for next := 0; next < len(packets) || sim.Busy(); {
		// A head that crossed at cycle c left its NI in the step to cycle
		// c-1, so its packet is queued before that step.
		for next < len(packets) && pkts[next].at <= sim.Cycle()+2 {
			if err := sim.Inject(packets[next]); err != nil {
				return err
			}
			next++
		}
		sim.Step()
		for n := 0; n < nodes; n++ {
			sim.Recycle(sim.PopEjected(n)...)
		}
		if sim.Cycle() > limit {
			return fmt.Errorf("replay not drained after %d cycles", limit)
		}
	}
	return nil
}

// probe runs the traced run's probes on input 0. It records the input's
// traffic once, then repeats rounds of an untraced inference, a replay of
// the recording, an inference with the engine's span tracer sampling 1
// packet in 64 and, with fullTrace, one with every packet traced — up to
// probeReps rounds while the rounds so far took under probeBudget. Each
// ratio it reports is of medians over the same rounds, so both sides were
// timed while the host ran at the same speed; the timed phase's medians
// were taken minutes earlier. The sampled run's layer spans give each
// layer's route, MAC and collect phases in simulated cycles.
func (w *inference) probe(r *run) {
	rec, err := w.record(r)
	r.opDone(err)
	if err != nil {
		return
	}
	var phases []obs.Span
	start := time.Now()
	for k := 0; k < r.probeReps && (k == 0 || time.Since(start) < r.probeBudget); k++ {
		w.tracedInfer(r, "probe.infer", 0)
		r.opDone(replay(r, rec))
		phases = w.tracedInfer(r, "obs.trace_sampled", 64).Snapshot()
		if w.fullTrace {
			w.tracedInfer(r, "obs.trace_full", 1)
		}
	}
	base := r.layerP50("probe.infer")
	replayMS := r.layerP50("noc.replay")
	r.set("noc.replay_ms", replayMS, "ms")
	r.set("noc.replay_share_pct", 100*replayMS/base, "%")
	if w.fullTrace {
		r.set("obs.trace_full_overhead_pct", pctOver(r.layerP50("obs.trace_full"), base), "%")
		r.set("obs.trace_sampled_overhead_pct", pctOver(r.layerP50("obs.trace_sampled"), base), "%")
	}
	layer := -1
	for _, sp := range phases {
		switch {
		case sp.TID != 1: // packet tracks
		case strings.HasPrefix(sp.Name, "layer:"):
			layer++
		case sp.Name == "route" || sp.Name == "mac" || sp.Name == "collect":
			r.set(fmt.Sprintf("l%d.%s_cycles", layer, sp.Name), float64(sp.Dur), "cycles")
		}
	}
}

// tracedInfer runs input 0 on a fresh engine, timed as layer, recording
// into a default-capacity tracer that keeps one packet in sample (none for
// sample 0), and returns the tracer. A tracer that lost spans fails the op:
// its time would not be that of a whole trace.
func (w *inference) tracedInfer(r *run, layer string, sample uint64) *obs.Tracer {
	eng, err := nocbt.NewEngine(w.o2, w.m)
	if err != nil {
		r.opDone(err)
		return nil
	}
	var t *obs.Tracer
	if sample > 0 {
		t = obs.NewTracer(0)
		t.SetSample(sample)
		eng.SetSpanTracer(t)
	}
	err = r.call(layer, 0, true, func() error {
		out, err := eng.Infer(r.ctx, w.in[0])
		if err == nil && !sameBits(out.Data, w.ref[0].out) {
			err = fmt.Errorf("%s inference differs from the O0 reference", layer)
		}
		return err
	})
	if n := t.Dropped(); err == nil && n > 0 {
		err = fmt.Errorf("%s: the tracer dropped %d of %d spans", layer, n, n+int64(t.Len()))
	}
	r.opDone(err)
	return t
}

// flitRoundTrip times FlitizeInto+DeflitizeInto at the platform's geometry
// and ordering on kernel-sized groups of the model's quantized weights,
// split at the platform's segment size as the dispatcher splits tasks. Each
// group is paired with the next group's words as stand-in inputs, and the
// first pass checks that every round trip keeps the pairing: the dot
// product and the bias survive.
func flitRoundTrip(r *run, m *nocbt.Model, p nocbt.Platform) error {
	g := p.Geometry
	bits := g.Format.Bits()
	var tasks []flit.Task
	for _, l := range m.Layers {
		var w []float32
		var group int
		switch t := l.(type) {
		case *dnn.Conv2D:
			w, group = t.W.Data, t.InC*t.K*t.K
		case *dnn.Linear:
			w, group = t.W.Data, t.In
		default:
			continue
		}
		qp, err := quant.ChooseWidth(w, bits)
		if err != nil {
			return err
		}
		words := make([]bitutil.Word, len(w))
		for i, q := range qp.QuantizeSlice(w) {
			words[i] = bitutil.FixedWord(q, bits)
		}
		for lo := 0; lo < len(words); lo += group {
			for s := lo; s < lo+group; s += p.MaxSegmentPairs {
				hi := min(s+p.MaxSegmentPairs, lo+group)
				t := flit.Task{Weights: words[s:hi], Inputs: make([]bitutil.Word, hi-s), Bias: words[lo]}
				for j := range t.Inputs {
					t.Inputs[j] = words[(s+group+j)%len(words)]
				}
				tasks = append(tasks, t)
			}
		}
	}
	pool := flit.NewPool(g.LinkBits)
	opt := flit.Options{Ordering: p.Ordering}
	var fz flit.Flitized
	var back flit.Task
	n := 0
	err := r.call("flit.roundtrip", 0, true, func() error {
		start := time.Now()
		for pass := 0; pass == 0 || time.Since(start) < 100*time.Millisecond; pass++ {
			for i, t := range tasks {
				if err := flit.FlitizeInto(g, t, opt, pool, &fz); err != nil {
					return err
				}
				if err := flit.DeflitizeInto(g, fz.Data, len(t.Weights), p.Ordering, fz.PartnerIndex, &back); err != nil {
					return err
				}
				if pass == 0 && (dot(back, bits) != dot(t, bits) || back.Bias != t.Bias) {
					return fmt.Errorf("flit round trip of task %d lost its pairing", i)
				}
				for _, v := range fz.Data {
					pool.PutVec(v)
				}
				n++
			}
		}
		return nil
	})
	r.opDone(err)
	if n > 0 {
		r.set("flit.roundtrip_us_per_task", 1000*r.layerP50("flit.roundtrip")/float64(n), "us")
	}
	return nil
}

// dot is the task's exact fixed-point dot product.
func dot(t flit.Task, bits int) int64 {
	var acc int64
	for i := range t.Weights {
		acc += int64(bitutil.WordFixed(t.Weights[i], bits)) * int64(bitutil.WordFixed(t.Inputs[i], bits))
	}
	return acc
}
