package accel

// The scheduler is the engine's execution core. It replaces the old
// monolithic runTasks loop with three cooperating components driven by one
// cycle loop:
//
//   - the dispatcher (dispatcher.go) queues a layer's tasks at its memory
//     controllers, which encode (gather, order and flitize) and inject each
//     task packet just in time, when their NI has room for it;
//   - the PE model (exec.go, pumpPEs) consumes task packets at processing
//     elements, multiply-accumulates, and schedules result packets after
//     the configured compute latency;
//   - the MC collector (exec.go, pumpMCs) validates returning result
//     packets and accumulates partial sums until a layer completes.
//
// All per-packet knowledge — which flow and layer a packet belongs to, its
// task/segment coordinates, the layer's quantization scales — is derived
// from the packet ID and per-task offsets of the run it belongs to, scoped
// to one Infer/InferBatch call and found by subtraction rather than a
// per-packet map entry. Nothing is engine-global, so any number of
// inferences (flows) can be in flight on the mesh at once, and every exit
// path (success or error) discards the whole context in one place.
//
// Memory follows the tasks and the traffic in flight, not the segment
// count. A run keeps one state byte per segment and, per task, its offset
// in the run's segments and its output; each partial adds into the output
// as it arrives, in segment order. What a segment needs only while its
// packets travel stays with them: an out-of-band partner table is held by
// handle in the engine's partner store (partnerTables), and the handle
// rides on the task packet's head flit as side-band Tag from send to the
// PE's decode; a result waits in the result window. Each run's offsets and
// states are exact-size slices of engine slabs (slab) that the next call
// reuses, and the call's tables (callTables) live in engine-owned arrays,
// so a warm engine allocates no bookkeeping per call. The whole call runs
// on the caller's goroutine.

import (
	"context"
	"fmt"
	"sort"

	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// flow is one inference travelling through the engine: its current
// activation tensor, its position in the model, and the NoC layer currently
// in flight (nil while executing host layers or finished).
type flow struct {
	idx       int // position in the batch
	act       *tensor.Tensor
	nextLayer int
	// nocIdx counts the conv/linear layers already dispatched for this
	// flow — the index into the engine's per-layer precision schedule.
	nocIdx int
	cur    *layerRun
	done   bool

	startCycle int64
	endCycle   int64
	layers     []LayerStat
}

// layerRun is one conv/linear layer of one flow in flight on the mesh,
// carrying the per-layer codec state (quantization scales) every packet of
// the layer computes with, one state byte per segment and, per task, its
// segment offset and output.
type layerRun struct {
	flow  *flow
	layer nocLayer

	// geom is the layer's flit geometry: the platform link width with the
	// layer's lane format from the precision schedule. It travels with the
	// run — packet context, not engine state — so concurrently in-flight
	// layers of different widths flitize and deflitize independently.
	geom flit.Geometry

	// The layer's segments are numbered in (task, segment) order; task
	// ti's are k = segStart[ti] … segStart[ti+1]-1, of maxSeg pairs each
	// but the last. Segment k's task packet has ID base+k, so a packet's
	// context is one subtraction away, and state[k] tracks its round trip.
	base     uint64
	maxSeg   int
	segStart []int32
	state    []segState
	// out is the layer's output, one value per task: each task's partials
	// add into it in segment order (see collect).
	out      []float32
	received int

	deadline   int64
	startCycle int64
	startBT    int64
	flits      int64

	// Span-tracer phase stamps, written only when the engine has a tracer
	// installed: the cycle the first task packet ejected at a PE, and the
	// latest result-ready time (ejection + PE compute latency). finishLayer
	// derives the route/MAC/collect phase boundaries from them.
	firstEject int64
	lastReady  int64
}

// segState tracks a segment through its round trip.
type segState uint8

const (
	segQueued   segState = iota // waiting in its MC's feed
	segSent                     // task packet on its way to the PE
	segComputed                 // result packet computed, on its way back
	segEarly                    // partial collected, waiting for its predecessor's
	segDone                     // partial added into the task's output
)

// nsegs returns the run's segment count.
func (run *layerRun) nsegs() int { return len(run.state) }

// owns reports whether task ti of the run holds segment k — the check a
// packet header's TaskID must pass before it indexes anything.
func (run *layerRun) owns(ti int64, k int) bool {
	return ti >= 0 && ti < int64(run.layer.ntasks) &&
		int(run.segStart[ti]) <= k && k < int(run.segStart[ti+1])
}

// segment returns segment k of task ti, which must own it: its index in
// the task and its pair count, maxSeg but for the task's last segment.
func (run *layerRun) segment(ti, k int) (seg, pairs int) {
	seg = k - int(run.segStart[ti])
	if k+1 < int(run.segStart[ti+1]) {
		return seg, run.maxSeg
	}
	return seg, run.layer.pairs(ti) - seg*run.maxSeg
}

// taskOf returns the task owning segment k, for error messages: the
// packet paths check a header's claim with owns instead of searching.
func (run *layerRun) taskOf(k int) int {
	return sort.Search(run.layer.ntasks, func(ti int) bool { return int(run.segStart[ti+1]) > k })
}

// slab hands the runs of one call exact-size slices of one backing array.
// The array is sized to the most any earlier call took, so after the first
// call of an engine a call takes nothing from the heap; a call that takes
// more than the array holds gets its excess from the heap, run by run, and
// the next call's first take grows the array. reset starts the next call,
// once nothing reads the slices this call handed out.
type slab[T any] struct {
	buf  []T
	used int // elements handed out in this call
	need int // the most elements one call has taken
}

// take returns n elements, not cleared, with cap equal to len.
func (s *slab[T]) take(n int) []T {
	if s.used == 0 && len(s.buf) < s.need {
		s.buf = make([]T, s.need)
	}
	lo := s.used
	if s.used += n; s.used > len(s.buf) {
		return make([]T, n)
	}
	return s.buf[lo:s.used:s.used]
}

func (s *slab[T]) reset() {
	s.need = max(s.need, s.used)
	s.used = 0
}

// partnerTables is the engine's store of out-of-band partner tables. A
// task packet under a partner-emitting ordering holds its tables, one per
// ordering the engine counts, by one handle from send until its PE decodes
// them: handle h names tables[(h-1)·k : h·k], 0 none, with ordering v's
// table at (h-1)·k + v (nil for an ordering that emits none). A free
// handle's tables are spare storage, which send hands to the encoders
// whose tables it takes, so the store holds as many tables per ordering
// as packets were ever in flight at once.
type partnerTables struct {
	k      int
	tables [][]int
	free   []int32
}

// hold stores the partner tables of fz, one Flitized per ordering, under a
// free handle, returns the handle, and leaves in each fz[v].PartnerIndex
// the handle's spare table (nil for a new handle).
func (pt *partnerTables) hold(fz []flit.Flitized) int32 {
	var h int32
	if n := len(pt.free); n > 0 {
		h, pt.free = pt.free[n-1], pt.free[:n-1]
	} else {
		for range pt.k {
			pt.tables = append(pt.tables, nil)
		}
		h = int32(len(pt.tables) / pt.k)
	}
	held := pt.tables[int(h-1)*pt.k : int(h)*pt.k]
	for v := range held {
		held[v], fz[v].PartnerIndex = fz[v].PartnerIndex, held[v]
	}
	return h
}

// table returns ordering v's table of handle h, nil for handle 0.
func (pt *partnerTables) table(h int32, v int) []int {
	if h == 0 {
		return nil
	}
	return pt.tables[int(h-1)*pt.k+v]
}

// release frees handle h; its tables become spare storage.
func (pt *partnerTables) release(h int32) {
	if h != 0 {
		pt.free = append(pt.free, h)
	}
}

// reset frees every handle.
func (pt *partnerTables) reset() {
	pt.free = pt.free[:0]
	for h := range len(pt.tables) / pt.k {
		pt.free = append(pt.free, int32(h+1))
	}
}

// segRef names one segment of one run.
type segRef struct {
	run *layerRun
	seg int32
}

// resultWindow maps in-flight result packet IDs to their segments without
// a heap object or map entry per packet: refs[i] describes packet base+i.
// IDs are handed out in increasing order, so new results append (IDs
// reserved meanwhile for task packets leave empty entries), and collected
// ones are trimmed off the front.
type resultWindow struct {
	base uint64
	refs []segRef
	head int // refs[:head] are collected
}

func (w *resultWindow) add(id uint64, run *layerRun, seg int) {
	if len(w.refs) == 0 {
		w.base = id
	}
	for next := w.base + uint64(len(w.refs)); next < id; next++ {
		w.refs = append(w.refs, segRef{})
	}
	w.refs = append(w.refs, segRef{run: run, seg: int32(seg)})
}

// take returns and forgets the segment of result packet id.
func (w *resultWindow) take(id uint64) (segRef, bool) {
	if id < w.base || id-w.base >= uint64(len(w.refs)) || w.refs[id-w.base].run == nil {
		return segRef{}, false
	}
	ref := w.refs[id-w.base]
	w.refs[id-w.base] = segRef{}
	for ; w.head < len(w.refs) && w.refs[w.head].run == nil; w.head++ {
	}
	switch {
	case w.head == len(w.refs):
		w.refs, w.head = w.refs[:0], 0
	case w.head > len(w.refs)/2:
		n := copy(w.refs, w.refs[w.head:])
		w.refs, w.base, w.head = w.refs[:n], w.base+uint64(w.head), 0
	}
	return ref, true
}

// pendingResult is a result packet waiting out its PE compute latency.
type pendingResult struct {
	ready int64
	pkt   *flit.Packet
	run   *layerRun
}

// earlyPartial is a collected partial whose predecessor in its task has
// not been added yet, keyed by its segment's task packet ID.
type earlyPartial struct {
	id      uint64
	partial float32
}

// callTables is the storage of a scheduler's per-call tables. The engine
// keeps it between calls, so a warm engine's calls take nothing for them:
// newScheduler lends it and reset hands it back, cleared, so it pins
// nothing of the finished call.
type callTables struct {
	feeds   [][]mcFeed
	refs    []segRef
	pending []pendingResult
	early   []earlyPartial
	runs    []*layerRun
}

// emptied zeroes every element of s's backing array and returns it empty.
func emptied[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// scheduler executes a set of flows over the engine's mesh.
type scheduler struct {
	ctx   context.Context
	e     *Engine
	flows []flow

	// feeds[m] queues, in dispatch order, the runs with segments still to
	// send from MC cfg.MCs[m].
	feeds   [][]mcFeed
	results resultWindow
	pending []pendingResult
	// early holds the partials collected ahead of a predecessor in their
	// task (see collect).
	early []earlyPartial

	// activeRuns holds the layer runs currently in flight, in dispatch
	// order, for deadline checking and task-packet lookup.
	activeRuns []*layerRun
	running    int // flows not yet done

	// cycleCount paces the context poll: ctx.Err() is checked once every
	// ctxPollInterval simulated cycles, so cancellation is prompt (a few
	// microseconds of wall time) without an atomic load per cycle.
	cycleCount int
}

// ctxPollInterval is the number of simulated cycles between context polls.
const ctxPollInterval = 1024

func newScheduler(ctx context.Context, e *Engine, flows []flow) *scheduler {
	if ctx == nil {
		ctx = context.Background()
	}
	e.call++
	t := &e.tables
	if len(t.feeds) != len(e.cfg.MCs) {
		t.feeds = make([][]mcFeed, len(e.cfg.MCs))
	}
	return &scheduler{
		ctx:        ctx,
		e:          e,
		flows:      flows,
		feeds:      t.feeds,
		results:    resultWindow{refs: t.refs},
		pending:    t.pending,
		early:      t.early,
		activeRuns: t.runs,
		running:    len(flows),
	}
}

// reset drops the per-call context tables on every exit path, so a
// retained scheduler cannot pin packet contexts, unsent segments or
// pending results after run returns, and hands the tables, the call's run
// slabs and partner tables back to the engine for the next call.
func (s *scheduler) reset() {
	e := s.e
	for m, q := range s.feeds {
		s.feeds[m] = emptied(q)
	}
	e.tables = callTables{
		feeds:   s.feeds,
		refs:    emptied(s.results.refs),
		pending: emptied(s.pending),
		early:   s.early[:0],
		runs:    emptied(s.activeRuns),
	}
	s.feeds, s.results, s.pending, s.early, s.activeRuns = nil, resultWindow{}, nil, nil, nil
	e.stateSlab.reset()
	e.startSlab.reset()
	e.actSlab.reset()
	e.partners.reset()
}

// run executes every flow to completion and returns the first error. The
// engine's LayerMode picks the discipline: SerialLayers (paper-faithful)
// admits one inference's traffic into the mesh at a time, making InferBatch
// bit-and-cycle identical to N serial Infer calls; PipelinedLayers admits
// every flow at once so inferences — and therefore consecutive layers of
// different inferences — share the mesh concurrently.
func (s *scheduler) run() error {
	defer s.reset()
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if s.e.cfg.LayerMode == SerialLayers {
		for i := range s.flows {
			if err := s.execute(s.flows[i : i+1]); err != nil {
				return err
			}
		}
	} else if err := s.execute(s.flows); err != nil {
		return err
	}
	// The mesh must be empty once every flow has delivered its results;
	// anything left is a protocol bug.
	return s.e.sim.Drain(s.e.cfg.DrainCycleCap)
}

// execute drives one working set of flows through the cycle loop.
func (s *scheduler) execute(flows []flow) error {
	s.running = len(flows)
	for i := range flows {
		f := &flows[i]
		f.startCycle = s.e.sim.Cycle()
		if err := s.advance(f); err != nil {
			return err
		}
	}
	for s.running > 0 {
		if s.cycleCount++; s.cycleCount%ctxPollInterval == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.checkDeadlines(); err != nil {
			return err
		}
		s.e.sim.Step()
		if err := s.feedMCs(); err != nil {
			return err
		}
		if err := s.pumpPEs(); err != nil {
			return err
		}
		if err := s.injectReady(); err != nil {
			return err
		}
		completed, err := s.pumpMCs()
		if err != nil {
			return err
		}
		for _, run := range completed {
			if err := s.finishLayer(run); err != nil {
				return err
			}
		}
	}
	return nil
}

// advance pushes a flow forward: host layers execute immediately, the next
// conv/linear layer is decomposed and handed to the dispatcher, completion
// marks the flow done.
func (s *scheduler) advance(f *flow) error {
	//nocbtlint:ignore ctxcheck: bounded by the model's layer count; nextLayer advances or the function returns every iteration
	for f.nextLayer < len(s.e.model.Layers) {
		layer := s.e.model.Layers[f.nextLayer]
		// The flow's NoC-layer counter indexes the precision schedule:
		// every packet of this layer is encoded, flitized and decoded at
		// the layer's own lane width.
		g := s.e.layerGeometry(f.nocIdx)
		var nl nocLayer
		var w, b []float32
		var err error
		switch l := layer.(type) {
		case *dnn.Conv2D:
			nl, err = newConvLayer(l, f.act)
			w, b = l.W.Data, l.B.Data
		case *dnn.Linear:
			nl, err = newLinearLayer(l, f.act)
			w, b = l.W.Data, l.B.Data
		default:
			f.layers = append(f.layers, LayerStat{Name: layer.Name(), Inference: f.idx})
			f.act = layer.Forward(f.act)
			f.nextLayer++
			continue
		}
		if err == nil {
			nl.enc, err = s.e.newCodec(f.nocIdx, g.Format, w, f.act.Data, b)
		}
		if err != nil {
			return fmt.Errorf("accel: layer %s: %w", layer.Name(), err)
		}
		f.nocIdx++
		run, err := s.dispatch(f, nl, g)
		if err != nil {
			return fmt.Errorf("accel: layer %s: %w", layer.Name(), err)
		}
		f.cur = run
		f.nextLayer++
		return s.feedMCs()
	}
	f.done = true
	f.cur = nil
	f.endCycle = s.e.sim.Cycle()
	s.running--
	return nil
}

// finishLayer runs when the MC collector has added every partial sum of a
// layer into its output: it records the layer stats and advances the
// owning flow to its next layer.
func (s *scheduler) finishLayer(run *layerRun) error {
	f := run.flow
	f.act = tensor.FromSlice(run.out, run.layer.outShape...)
	f.cur = nil
	st := LayerStat{
		Name:      run.layer.name,
		Inference: f.idx,
		OverNoC:   true,
		Cycles:    s.e.sim.Cycle() - run.startCycle,
		BT:        s.e.sim.TotalBT() - run.startBT,
		Packets:   int64(run.nsegs()) * 2, // task + result per segment
		Flits:     run.flits,
		Tasks:     run.layer.ntasks,
	}
	f.layers = append(f.layers, st)
	if s.e.spans != nil {
		s.emitLayerSpans(run, st)
	}
	s.removeRun(run)

	// Paper-faithful serial mode: between consecutive layers the mesh must
	// be fully drained. SerialLayers runs exactly one flow at a time, so
	// the whole-mesh checkpoint is well-defined; under PipelinedLayers
	// other flows legitimately keep traffic in flight and only the
	// per-flow completion barrier (dispatch waits for every result of the
	// previous layer) applies.
	if s.e.cfg.LayerMode == SerialLayers {
		if err := s.e.sim.Drain(s.e.cfg.DrainCycleCap); err != nil {
			return err
		}
	}
	return s.advance(f)
}

// emitLayerSpans records the finished layer and its inference phases on
// the flow's track (tid 1+batch index, low so it never collides with
// packet tracks at noc's packetTIDBase). Phases are contiguous,
// non-overlapping windows inside the layer span, so Perfetto nests them:
//
//	quantize+flitize  [start, start+1]   dispatch quantizes and queues
//	route             [start+1, firstEject]  task packets traverse the mesh
//	mac               [firstEject, lastReady]  PE multiply-accumulate
//	collect           [lastReady, end]   results return and reduce
//
// Segments are flitized as their MCs send them, so flitization itself
// streams across the whole layer, overlapping route, mac and collect; the
// quantize+flitize window marks only the dispatch cycle. The boundaries
// are clamped monotone so degenerate layers (everything in one cycle)
// still produce a valid containment hierarchy.
func (s *scheduler) emitLayerSpans(run *layerRun, st LayerStat) {
	e := s.e
	t := e.spans
	tid := int64(1 + run.flow.idx)
	start := run.startCycle
	end := e.sim.Cycle()
	lay := t.Begin("layer:"+run.layer.name, "accel", e.spanPID, tid, start).
		SetAttrInt("bt", st.BT).
		SetAttrInt("flits", st.Flits).
		SetAttrInt("tasks", int64(st.Tasks))
	t.End(lay, end)

	fz := start + 1
	if fz > end {
		fz = end
	}
	fe := run.firstEject
	if fe < fz {
		fe = fz
	}
	if fe > end {
		fe = end
	}
	lr := run.lastReady
	if lr < fe {
		lr = fe
	}
	if lr > end {
		lr = end
	}
	t.End(t.Begin("quantize+flitize", "accel", e.spanPID, tid, start), fz)
	t.End(t.Begin("route", "accel", e.spanPID, tid, fz), fe)
	t.End(t.Begin("mac", "accel", e.spanPID, tid, fe), lr)
	t.End(t.Begin("collect", "accel", e.spanPID, tid, lr), end)
}

// removeRun drops a completed run from the deadline list.
func (s *scheduler) removeRun(run *layerRun) {
	for i, r := range s.activeRuns {
		if r == run {
			s.activeRuns = append(s.activeRuns[:i], s.activeRuns[i+1:]...)
			return
		}
	}
}

// checkDeadlines fails the run if any in-flight layer exceeded the per-layer
// cycle cap — the protocol-failure guard the old per-layer loop had.
func (s *scheduler) checkDeadlines() error {
	now := s.e.sim.Cycle()
	for _, run := range s.activeRuns {
		if now >= run.deadline {
			return fmt.Errorf("accel: layer %s (inference %d) exceeded cycle cap %d (%d/%d results)",
				run.layer.name, run.flow.idx, s.e.cfg.DrainCycleCap, run.received, run.nsegs())
		}
	}
	return nil
}

// injectReady injects result packets whose PE compute latency has elapsed.
func (s *scheduler) injectReady() error {
	now := s.e.sim.Cycle()
	kept := s.pending[:0]
	for _, pr := range s.pending {
		if pr.ready <= now {
			if err := s.e.sim.Inject(pr.pkt); err != nil {
				return err
			}
			s.e.resultPackets++
			pr.run.flits += int64(pr.pkt.Len())
			s.e.totalFlits += int64(pr.pkt.Len())
		} else {
			kept = append(kept, pr)
		}
	}
	s.pending = kept
	return nil
}
