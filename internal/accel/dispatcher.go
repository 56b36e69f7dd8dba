package accel

import (
	"fmt"
	"slices"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
)

// mcQueueDepth is how many task packets an MC keeps at its NI: one
// injecting and one waiting behind it. The NI then never idles for want of
// a packet, so every head flit leaves in the cycle it would have left from
// a queue holding the whole layer, while the flit pool holds only the
// traffic actually in flight.
const mcQueueDepth = 2

// mcFeed is one layer run's unsent segments at one MC: the MC's tasks of
// the run in order, each segment by segment.
type mcFeed struct {
	run  *layerRun
	task int // current task
	next int // the run's index of the next segment to send, one of task's
}

// feedAt returns MC m's feed over run, of the tasks m, m+|MCs|, …; next
// is -1 when the run has no task for m.
func feedAt(run *layerRun, m int) mcFeed {
	fd := mcFeed{run: run, task: m, next: -1}
	if m < run.layer.ntasks {
		fd.next = int(run.segStart[m])
	}
	return fd
}

// step moves fd to its MC's next segment of the run, reporting false (and
// setting next to -1) when the run has none left.
func (fd *mcFeed) step(mcs int) bool {
	if fd.next++; fd.next < int(fd.run.segStart[fd.task+1]) {
		return true
	}
	if fd.task += mcs; fd.task < fd.run.layer.ntasks {
		fd.next = int(fd.run.segStart[fd.task])
		return true
	}
	fd.next = -1
	return false
}

// dispatch is the memory-controller side of the scheduler: it assigns a
// layer's tasks to MCs and PEs, reserves the layer's packet IDs and queues
// its segments at their MCs. feedMCs then streams them out, and send
// encodes each segment as its MC injects it.
//
// Task ti is owned by MC ti mod |MCs| and computed by PE
// (ti div |MCs|) mod |PEs| — both round-robin, spreading load the way a
// NocDAS-style scheduler does. Tasks larger than MaxSegmentPairs are split;
// every segment is an independent packet whose partial sums the MC
// accumulates in fixed segment order (keeping float32 results deterministic
// for a given ordering configuration). Segment k of the run, counted in
// (task, segment) order, travels as packet base+k.
func (s *scheduler) dispatch(f *flow, nl nocLayer, g flit.Geometry) (*layerRun, error) {
	if nl.ntasks == 0 {
		return nil, fmt.Errorf("layer produced no tasks")
	}
	e := s.e
	maxSeg := e.cfg.MaxSegmentPairs
	// One pass over the tasks sizes the segments; each segment then keeps
	// a single state byte.
	segStart := e.startSlab.take(nl.ntasks + 1)
	nsegs := 0
	for ti := 0; ti < nl.ntasks; ti++ {
		n := nl.pairs(ti)
		if n == 0 {
			return nil, fmt.Errorf("task %d has no pairs", ti)
		}
		segs := (n + maxSeg - 1) / maxSeg
		if segs > flit.MaxHeaderCount+1 {
			return nil, fmt.Errorf("task %d of %d pairs splits into %d segments of %d; result headers carry the segment index in the 16-bit PairCount field, so at most %d",
				ti, n, segs, maxSeg, flit.MaxHeaderCount+1)
		}
		segStart[ti] = int32(nsegs)
		nsegs += segs
	}
	segStart[nl.ntasks] = int32(nsegs)
	state := e.stateSlab.take(nsegs)
	clear(state) // segQueued
	run := &layerRun{
		flow:       f,
		layer:      nl,
		geom:       g,
		maxSeg:     maxSeg,
		segStart:   segStart,
		state:      state,
		out:        make([]float32, nl.ntasks),
		deadline:   e.sim.Cycle() + e.cfg.DrainCycleCap,
		startCycle: e.sim.Cycle(),
		startBT:    e.sim.TotalBT(),
	}
	run.base = e.nextPacketID + 1
	e.nextPacketID += uint64(nsegs)
	for m := range e.cfg.MCs {
		if m < nl.ntasks {
			s.feeds[m] = append(s.feeds[m], feedAt(run, m))
		}
	}
	s.activeRuns = append(s.activeRuns, run)
	return run, nil
}

// feedMCs tops every MC's NI up to mcQueueDepth packets from its feed. It
// runs at dispatch and after every simulator step, so an NI that sent a
// tail flit this cycle has its next packet queued before it can ask for
// one. MCs only ever inject task packets (PEs inject the results), so the
// per-MC packet order is exactly the dispatch order.
func (s *scheduler) feedMCs() error {
	e := s.e
	mcs := e.cfg.MCs
	for m, mc := range mcs {
		q := s.feeds[m]
		for held := e.sim.Pending(mc); held < mcQueueDepth && len(q) > 0; held++ {
			fd := &q[0]
			if err := s.send(fd.run, fd.task, fd.next, m); err != nil {
				return err
			}
			if !fd.step(len(mcs)) {
				// Let the finished run go; the queue keeps its backing
				// array for the engine's next call.
				n := copy(q, q[1:])
				q[n] = mcFeed{}
				q = q[:n]
			}
		}
		s.feeds[m] = q
	}
	return nil
}

// segEncoder is the MC codec's scratch: the gathered words of the segment
// being encoded, one flitization per ordering the engine counts, and the
// wire images of one ordering that flitization writes.
type segEncoder struct {
	w, x []bitutil.Word
	fz   []flit.Flitized
	img  []bitutil.Vec
}

// encode gathers segment k of run, of task ti, orders it under each of the
// orderings and flitizes ordering v into image v of vecs, the segment's
// payload vectors, the way the paper's MC-side ordering unit (Fig. 6,
// Fig. 14) orders each packet as it leaves. enc.fz[v] keeps ordering v's
// partner table.
func (enc *segEncoder) encode(run *layerRun, ti, k int, orderings []flit.Ordering, inBand bool, vecs []bitutil.Vec) error {
	seg, n := run.segment(ti, k)
	enc.w = slices.Grow(enc.w[:0], n)[:n]
	enc.x = slices.Grow(enc.x[:0], n)[:n]
	run.layer.gather(ti, seg*run.maxSeg, enc.w, enc.x)
	var bias bitutil.Word
	if k+1 == int(run.segStart[ti+1]) {
		bias = run.layer.bias(ti) // only the final segment carries the bias
	}
	task := flit.Task{Inputs: enc.x, Weights: enc.w, Bias: bias}
	if len(enc.fz) < len(orderings) {
		enc.fz = append(enc.fz, make([]flit.Flitized, len(orderings)-len(enc.fz))...)
	}
	g := run.geom
	enc.img = slices.Grow(enc.img[:0], len(vecs))[:len(vecs)]
	for v, o := range orderings {
		for i, vec := range vecs {
			enc.img[i] = vec.Image(v, g.LinkBits)
		}
		if err := flit.FlitizeOnto(g, task, flit.Options{Ordering: o, InBandIndex: inBand}, enc.img, &enc.fz[v]); err != nil {
			return err
		}
	}
	return nil
}

// send encodes segment k of run, of task ti, and injects its task packet at
// MC m, the MC's next segment.
func (s *scheduler) send(run *layerRun, ti, k, m int) error {
	e := s.e
	cfg := &e.cfg
	mc := cfg.MCs[m]
	seg, n := run.segment(ti, k)
	pe := e.pes[(ti/len(cfg.MCs))%len(e.pes)]
	// The payload vectors come from the simulator's flit pool, one image
	// per ordering each: data flits, index flits, then the header.
	pool := e.sim.Pool()
	nvecs := run.geom.PayloadFlitCount(n, e.inBand)
	payloads := slices.Grow(e.payloadScratch[:0], nvecs)[:nvecs]
	for i := range payloads {
		payloads[i] = pool.Vec()
	}
	e.payloadScratch = payloads
	enc := &e.enc
	if err := enc.encode(run, ti, k, e.orderings, cfg.InBandIndex, payloads); err != nil {
		return fmt.Errorf("accel: layer %s: flitize task %d seg %d: %w", run.layer.name, ti, seg, err)
	}
	pid := run.base + uint64(k)
	hdr := pool.Vec()
	for v, o := range e.orderings {
		flit.EncodeHeaderInto(flit.Header{
			Dst: uint16(pe), Src: uint16(mc),
			PacketID: uint32(pid), TaskID: uint32(ti),
			Kind: flit.KindTask, PairCount: uint16(n),
			Ordering: o,
		}, hdr.Image(v, cfg.Geometry.LinkBits))
	}
	pkt := pool.Packet(pid, mc, pe, hdr, payloads)
	// Any partner-emitting strategy (O2 or a registered kin) ships its
	// re-pairing table out-of-band unless the configuration pays for
	// in-band index flits. An out-of-band table rides with its packet
	// until the PE decodes it, so each packet orders into tables of its
	// own: the head flit carries the handle of the packet's tables, one
	// per ordering, as side-band Tag, and the encoders get the handle's
	// spare tables. An in-band table is encoded into index flits at once
	// and reused in place.
	if e.oob {
		pkt.Flits[0].Tag = e.partners.hold(enc.fz)
	}
	run.state[k] = segSent
	if err := e.sim.Inject(pkt); err != nil {
		return err
	}
	e.taskPackets++
	run.flits += int64(pkt.Len())
	e.totalFlits += int64(pkt.Len())
	return nil
}
