package accel

import (
	"fmt"
	"math"
	"slices"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

// This file holds the PE model and the MC collector — the two packet
// consumers of the scheduler. Both treat decoded header fields as untrusted
// wire data: every field is validated against what the scheduler
// dispatched — the packet ID's run and segment, and the run's task offsets
// — before it indexes anything, and inconsistencies surface as errors
// instead of panics or silent corruption.

// pumpPEs is the processing-element model: it consumes task packets ejected
// at PEs, multiply-accumulates the segment with the owning layer's codec
// state, and schedules the result packet for injection after the PE compute
// latency. It visits only the nodes holding ejected packets, in ascending
// node order — the order of cfg.PEs(), which fixes result packet IDs.
func (s *scheduler) pumpPEs() error {
	e := s.e
	g := e.cfg.Geometry
	mcs := e.cfg.MCs
	for pe := e.sim.NextEjected(0); pe >= 0; pe = e.sim.NextEjected(pe + 1) {
		if !e.isPE[pe] {
			continue
		}
		for _, pkt := range e.sim.PopEjected(pe) {
			hdr := flit.DecodeHeader(g, pkt.Flits[0].Payload.Image(0, g.LinkBits))
			if hdr.Kind != flit.KindTask {
				return fmt.Errorf("PE %d received non-task packet %d", pe, pkt.ID)
			}
			run, k := s.sentSegment(pkt.ID)
			if run == nil {
				return fmt.Errorf("PE %d received unknown packet %d", pe, pkt.ID)
			}
			ti := int(hdr.TaskID)
			owned := run.owns(int64(ti), k)
			var seg, pairs int
			if owned {
				seg, pairs = run.segment(ti, k)
			}
			if !owned || int(hdr.PairCount) != pairs {
				rt := run.taskOf(k)
				_, rp := run.segment(rt, k)
				return fmt.Errorf("PE %d packet %d header (task %d, %d pairs) contradicts dispatch record (task %d, %d pairs)",
					pe, pkt.ID, hdr.TaskID, hdr.PairCount, rt, rp)
			}
			h := pkt.Flits[0].Tag
			value, err := s.peCompute(pkt, run, pairs, h)
			if err != nil {
				return fmt.Errorf("PE %d packet %d: %w", pe, pkt.ID, err)
			}
			e.partners.release(h)
			run.state[k] = segComputed
			// The task packet is fully decoded; its flits, payload vectors
			// and shell go back to the pool and come out again as the
			// result packet built just below.
			pool := e.sim.Pool()
			e.sim.Recycle(pkt)
			mc := mcs[ti%len(mcs)]
			rid := e.nextID()
			// One header image per ordering; every image of the body
			// carries the one partial.
			rhdr, body := pool.Vec(), pool.Vec()
			for v, o := range e.orderings {
				flit.EncodeHeaderInto(flit.Header{
					Dst: uint16(mc), Src: uint16(pe),
					PacketID: uint32(rid), TaskID: uint32(ti),
					Kind: flit.KindResult, PairCount: uint16(seg),
					Ordering: o,
				}, rhdr.Image(v, g.LinkBits))
				img := body.Image(v, g.LinkBits)
				img.SetField(0, 32, uint64(bitutil.Float32Word(value)))
			}
			e.payloadScratch = append(e.payloadScratch[:0], body)
			rpkt := pool.Packet(rid, pe, mc, rhdr, e.payloadScratch)
			s.results.add(rid, run, k)
			ready := e.sim.Cycle() + int64(e.cfg.PEComputeCycles)
			s.pending = append(s.pending, pendingResult{
				ready: ready,
				pkt:   rpkt,
				run:   run,
			})
			if e.spans != nil {
				if run.firstEject == 0 {
					run.firstEject = e.sim.Cycle()
				}
				if ready > run.lastReady {
					run.lastReady = ready
				}
			}
		}
	}
	return nil
}

// sentSegment finds the segment whose task packet has ID id and is on its
// way to a PE: the in-flight run whose ID block holds id (a handful of
// runs at most, one per flow). A nil run means no such packet was sent.
func (s *scheduler) sentSegment(id uint64) (*layerRun, int) {
	for _, run := range s.activeRuns {
		if k := id - run.base; id >= run.base && k < uint64(run.nsegs()) && run.state[k] == segSent {
			return run, int(k)
		}
	}
	return nil, 0
}

// peCompute models the PE datapath: deflitize the task segment of pairs
// pairs, multiply-accumulate, and return the real-domain partial sum
// (including the segment's bias lane, which is zero for non-final
// segments). h is the handle of the packet's out-of-band partner tables,
// 0 for none. The flit geometry and quantization scales come from the
// packet's layer context, never from engine-global registers — each layer
// decodes at its own lane width. A packet carrying several orderings'
// images is decoded once per ordering, and their partial sums must agree
// bit for bit.
func (s *scheduler) peCompute(pkt *flit.Packet, run *layerRun, pairs int, h int32) (float32, error) {
	e := s.e
	g := run.geom
	dataFlits := g.DataFlitCount(pairs)
	if len(pkt.Flits)-1 < dataFlits {
		return 0, fmt.Errorf("packet has %d payload flits, need %d data flits", len(pkt.Flits)-1, dataFlits)
	}
	var value float32
	payloads := slices.Grow(e.peScratch[:0], len(pkt.Flits)-1)[:len(pkt.Flits)-1]
	e.peScratch = payloads
	for v, o := range e.orderings {
		for i, f := range pkt.Flits[1:] {
			payloads[i] = f.Payload.Image(v, g.LinkBits)
		}
		partner := e.partners.table(h, v)
		if e.inBand {
			var err error
			partner, err = flit.DecodePartnerIndexInto(g, payloads[dataFlits:], pairs, e.partnerScratch)
			if err != nil {
				return 0, err
			}
			e.partnerScratch = partner
		}
		if err := flit.DeflitizeInto(g, payloads[:dataFlits], pairs, o, partner, &e.deflitScratch); err != nil {
			return 0, err
		}
		x := mac(&e.deflitScratch, g, &run.layer.enc)
		if v == 0 {
			value = x
		} else if math.Float32bits(x) != math.Float32bits(value) {
			return 0, fmt.Errorf("ordering %s partial %v differs from ordering %s partial %v",
				o, x, e.orderings[0], value)
		}
	}

	n := int64(pairs)
	lb := g.LaneBits()
	e.macOps += n
	e.macBitOps += n * int64(lb) * int64(lb)
	e.weightRegBits += n * int64(lb)
	return value, nil
}

// mac multiply-accumulates a deflitized task in format g.Format and
// returns its real-domain partial sum.
func mac(task *flit.Task, g flit.Geometry, enc *codec) float32 {
	if g.Format.IsFixed() {
		// Exact integer MAC, then one rescale: identical across orderings.
		// The accumulator is int64 so 16-bit lanes (per-pair products up to
		// 2^30) cannot overflow; for 8-bit lanes the value is identical to
		// the historical int32 accumulation.
		lb := g.LaneBits()
		var acc int64
		for i := range task.Weights {
			acc += int64(bitutil.WordFixed(task.Weights[i], lb)) * int64(bitutil.WordFixed(task.Inputs[i], lb))
		}
		return float32(acc)*enc.scaleWX + float32(bitutil.WordFixed(task.Bias, lb))*enc.scaleB
	}
	sum := bitutil.WordFloat32(task.Bias)
	for i := range task.Weights {
		sum += bitutil.WordFloat32(task.Weights[i]) * bitutil.WordFloat32(task.Inputs[i])
	}
	return sum
}

// pumpMCs is the memory-controller collector: it consumes result packets
// ejected at MCs and adds their partial sums into the layer outputs,
// validating every decoded header field against what was dispatched
// before indexing. Task IDs or segment indices contradicting the packet's
// segment and duplicate results are errors — the old code panicked on
// out-of-range indices and silently double-counted duplicates. Returns
// the layer runs this cycle completed.
func (s *scheduler) pumpMCs() ([]*layerRun, error) {
	e := s.e
	g := e.cfg.Geometry
	var completed []*layerRun
	for _, mc := range e.cfg.MCs {
		for _, pkt := range e.sim.PopEjected(mc) {
			hdr := flit.DecodeHeader(g, pkt.Flits[0].Payload.Image(0, g.LinkBits))
			if hdr.Kind != flit.KindResult {
				return nil, fmt.Errorf("MC %d received non-result packet %d", mc, pkt.ID)
			}
			ref, ok := s.results.take(pkt.ID)
			if !ok {
				return nil, fmt.Errorf("MC %d received unknown or duplicate result packet %d", mc, pkt.ID)
			}
			run, k := ref.run, int(ref.seg)
			task, seg := int64(hdr.TaskID), int64(hdr.PairCount)
			if !run.owns(task, k) {
				return nil, fmt.Errorf("MC %d result packet %d: task ID %d out of range or contradicting dispatch record (task %d of %d)",
					mc, pkt.ID, task, run.taskOf(k), run.layer.ntasks)
			}
			if want := int64(k) - int64(run.segStart[task]); seg != want {
				return nil, fmt.Errorf("MC %d result packet %d: segment %d out of range or contradicting dispatch record (segment %d of %d)",
					mc, pkt.ID, seg, want, run.segStart[task+1]-run.segStart[task])
			}
			if run.state[k] >= segEarly {
				return nil, fmt.Errorf("MC %d result packet %d: duplicate result for task %d segment %d",
					mc, pkt.ID, task, seg)
			}
			if pkt.Len() < 2 {
				return nil, fmt.Errorf("MC %d result packet %d has no payload flit", mc, pkt.ID)
			}
			partial := bitutil.WordFloat32(bitutil.Word(pkt.Flits[1].Payload.Field(0, 32)))
			id := pkt.ID
			// Everything of interest has been read; the packet returns to
			// the pool for the next dispatch to reuse.
			e.sim.Recycle(pkt)
			if err := s.collect(run, int(task), k, partial); err != nil {
				return nil, fmt.Errorf("MC %d result packet %d: %w", mc, id, err)
			}
			run.received++
			if run.received == run.nsegs() {
				completed = append(completed, run)
			}
		}
	}
	return completed, nil
}

// collect adds the partial of segment k, of task ti, into the task's
// output. Each task's partials add in segment order, whatever order they
// arrive in — the fixed reduction order that keeps float32 outputs
// deterministic: a partial whose predecessor is not added yet waits in
// early, and adding a segment adds every waiting successor after it.
func (s *scheduler) collect(run *layerRun, ti, k int, partial float32) error {
	if k > int(run.segStart[ti]) && run.state[k-1] != segDone {
		run.state[k] = segEarly
		s.early = append(s.early, earlyPartial{id: run.base + uint64(k), partial: partial})
		return nil
	}
	run.out[ti] += partial
	run.state[k] = segDone
	for k++; k < int(run.segStart[ti+1]) && run.state[k] == segEarly; k++ {
		p, err := s.takeEarly(run.base + uint64(k))
		if err != nil {
			return err
		}
		run.out[ti] += p
		run.state[k] = segDone
	}
	return nil
}

// takeEarly removes and returns the waiting partial of the segment whose
// task packet has ID id.
func (s *scheduler) takeEarly(id uint64) (float32, error) {
	for i, ep := range s.early {
		if ep.id == id {
			last := len(s.early) - 1
			s.early[i] = s.early[last]
			s.early = s.early[:last]
			return ep.partial, nil
		}
	}
	return 0, fmt.Errorf("segment of task packet %d is marked early, but no partial of it is waiting", id)
}

// TotalBT returns the accumulated router-output bit transitions — the
// paper's headline metric.
func (e *Engine) TotalBT() int64 { return e.sim.TotalBT() }

// Cycles returns the total simulated cycles.
func (e *Engine) Cycles() int64 { return e.sim.Cycle() }

// LayerStats returns the per-layer traffic records of the most recent
// Infer or InferBatch call, one per model layer of each inference, grouped
// per inference in batch order and carrying the batch index in Inference.
// Each call's records replace the previous call's; a failed call leaves
// them as they were.
func (e *Engine) LayerStats() []LayerStat { return e.layers }

// TaskPackets returns the number of task packets sent.
func (e *Engine) TaskPackets() int64 { return e.taskPackets }

// ResultPackets returns the number of result packets sent.
func (e *Engine) ResultPackets() int64 { return e.resultPackets }

// NoCStats returns the raw simulator counters.
func (e *Engine) NoCStats() noc.Stats { return e.sim.Stats() }

// TotalFlits returns the total flits injected into the mesh (task and
// result packets, headers included) across every inference — the traffic
// volume the precision schedule shrinks: a 4-bit layer ships roughly half
// the data flits of its 8-bit run.
func (e *Engine) TotalFlits() int64 { return e.totalFlits }

// EnergyCounters is the engine's raw activity record for per-component
// energy estimation: the accel package counts events, hwmodel prices
// them. All counters accumulate across inferences, like the BT counters.
type EnergyCounters struct {
	// MACOps is the number of multiply-accumulate operations PEs executed.
	MACOps int64
	// MACBitOps is Σ weightBits×inputBits over every MAC — the
	// BitSim/BitVert-style activity measure that makes narrow-lane layers
	// quadratically cheaper in the PE array.
	MACBitOps int64
	// WeightRegBits counts bits latched into PE weight registers (one lane
	// width per delivered pair).
	WeightRegBits int64
	// FlitBits counts bits pushed through the MC dispatchers onto the mesh
	// (flits × physical link width).
	FlitBits int64
	// LinkTransitions is the measured wire-toggle count (TotalBT).
	LinkTransitions int64
}

// EnergyCounters returns the engine's accumulated activity counters.
func (e *Engine) EnergyCounters() EnergyCounters {
	return EnergyCounters{
		MACOps:          e.macOps,
		MACBitOps:       e.macBitOps,
		WeightRegBits:   e.weightRegBits,
		FlitBits:        e.totalFlits * int64(e.cfg.Geometry.LinkBits),
		LinkTransitions: e.sim.TotalBT(),
	}
}
