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
	next int // index in run.segs of the next segment to send
}

// dispatch is the memory-controller side of the scheduler: it assigns a
// layer's tasks to MCs and PEs, reserves the layer's packet IDs and queues
// its segments at their MCs. feedMCs then streams them out.
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
	run := &layerRun{
		flow:       f,
		layer:      nl,
		geom:       g,
		segStart:   make([]int32, nl.ntasks+1),
		segs:       make([]segment, 0, nl.ntasks),
		deadline:   e.sim.Cycle() + e.cfg.DrainCycleCap,
		startCycle: e.sim.Cycle(),
		startBT:    e.sim.TotalBT(),
	}
	for ti := 0; ti < nl.ntasks; ti++ {
		n := nl.pairs(ti)
		if n == 0 {
			return nil, fmt.Errorf("task %d has no pairs", ti)
		}
		if segs := (n + maxSeg - 1) / maxSeg; segs > flit.MaxHeaderCount+1 {
			return nil, fmt.Errorf("task %d of %d pairs splits into %d segments of %d; result headers carry the segment index in the 16-bit PairCount field, so at most %d",
				ti, n, segs, maxSeg, flit.MaxHeaderCount+1)
		}
		run.segStart[ti] = int32(len(run.segs))
		for seg, lo := 0, 0; lo < n; seg, lo = seg+1, lo+maxSeg {
			run.segs = append(run.segs, segment{
				task: int32(ti), seg: int32(seg), pairs: int32(min(maxSeg, n-lo)), state: segQueued,
			})
		}
	}
	run.segStart[nl.ntasks] = int32(len(run.segs))
	run.base = e.nextPacketID + 1
	e.nextPacketID += uint64(len(run.segs))
	for m := range e.cfg.MCs {
		if m < nl.ntasks {
			s.feeds[m] = append(s.feeds[m], mcFeed{run: run, task: m, next: int(run.segStart[m])})
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
			if err := s.send(fd.run, fd.next, mc); err != nil {
				return err
			}
			if fd.next++; fd.next == int(fd.run.segStart[fd.task+1]) {
				if fd.task += len(mcs); fd.task < fd.run.layer.ntasks {
					fd.next = int(fd.run.segStart[fd.task])
				} else {
					q[0] = mcFeed{} // let the finished run go
					q = q[1:]
				}
			}
		}
		s.feeds[m] = q
	}
	return nil
}

// send encodes, orders and flitizes segment k of run at MC mc and injects
// its task packet.
func (s *scheduler) send(run *layerRun, k, mc int) error {
	e := s.e
	sg := &run.segs[k]
	ti, n := int(sg.task), int(sg.pairs)
	pe := e.pes[(ti/len(e.cfg.MCs))%len(e.pes)]
	e.wScratch = slices.Grow(e.wScratch[:0], n)[:n]
	e.xScratch = slices.Grow(e.xScratch[:0], n)[:n]
	run.layer.gather(ti, int(sg.seg)*e.cfg.MaxSegmentPairs, e.wScratch, e.xScratch)
	var bias bitutil.Word
	if k+1 == int(run.segStart[ti+1]) {
		bias = run.layer.bias(ti) // only the final segment carries the bias
	}
	// Flitize through the engine scratch and the simulator's flit pool: the
	// payload vectors, flit structs and packet shell all come from
	// free-lists once the engine is warm.
	pool := e.sim.Pool()
	fz := &e.fzScratch
	// Any partner-emitting strategy (O2 or a registered kin) ships its
	// re-pairing table out-of-band unless the configuration pays for
	// in-band index flits. An out-of-band table rides with its segment
	// until the PE decodes the packet, so each packet orders into a table
	// of its own, lent from the tables the PEs have handed back. An
	// in-band table is encoded into index flits at once and reused in
	// place.
	oob := e.strategy.EmitsPartner() && !e.cfg.InBandIndex
	if oob {
		fz.PartnerIndex = nil
		if free := len(e.partnerFree); free > 0 {
			fz.PartnerIndex = e.partnerFree[free-1]
			e.partnerFree = e.partnerFree[:free-1]
		}
	}
	if err := flit.FlitizeInto(run.geom, flit.Task{
		Inputs:  e.xScratch,
		Weights: e.wScratch,
		Bias:    bias,
	}, flit.Options{Ordering: e.cfg.Ordering, InBandIndex: e.cfg.InBandIndex}, pool, fz); err != nil {
		return fmt.Errorf("accel: layer %s: flitize task %d seg %d: %w", run.layer.name, ti, sg.seg, err)
	}
	pid := run.base + uint64(k)
	hdr := pool.Vec()
	flit.EncodeHeaderInto(flit.Header{
		Dst: uint16(pe), Src: uint16(mc),
		PacketID: uint32(pid), TaskID: uint32(ti),
		Kind: flit.KindTask, PairCount: uint16(n),
		Ordering: e.cfg.Ordering,
	}, hdr)
	e.payloadScratch = fz.AppendPayloads(e.payloadScratch[:0])
	pkt := pool.Packet(pid, mc, pe, hdr, e.payloadScratch)
	if oob {
		sg.partner, fz.PartnerIndex = fz.PartnerIndex, nil
	}
	sg.state = segSent
	if err := e.sim.Inject(pkt); err != nil {
		return err
	}
	e.taskPackets++
	run.flits += int64(pkt.Len())
	e.totalFlits += int64(pkt.Len())
	return nil
}
