package accel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
)

// The MC codec — gather, ordering and flitization of each task segment —
// runs ahead of the simulation on one helper goroutine per Infer/InferBatch
// call, the way the paper's MC-side ordering unit (Fig. 6, Fig. 14) sorts
// and packs the next packets while the NoC moves the current ones.
//
// The helper walks the dispatched runs in (run, segment) order and encodes
// each segment into a bounded ring per MC: plain words, never the
// simulator's pooled vectors, so the flit pool, packet IDs and counters
// stay the main goroutine's alone. When an MC sends, main takes the
// segment's slot if the helper has published it and copies the words into
// pooled vectors; otherwise it claims the slot and encodes the segment
// itself through the same encode function, straight into pooled vectors.
// A starved or descheduled helper costs only that check, never a wait, and
// every packet, BT, cycle and pool reuse is the same whichever goroutine
// encoded it.
//
// Slot protocol. Segment c of MC m (counted in that MC's send order, which
// both goroutines walk) lives in slot c mod aheadDepth of MC m's ring.
// The slot's state word holds c<<1 while the slot is free for segment c,
// and c<<1|1 once the helper has published it. Main consumes an MC's
// segments strictly in order, and either step frees the slot for segment
// c+aheadDepth: a published slot once its words are copied out, a free
// one by the compare-and-swap that claims it for an inline encode. A
// helper that finds the slot already past c skips the segment; one whose
// publish loses that race discards its copy. Every segment is sent once.
//
// Wait policy. The helper never spins: when no walk can step — no
// dispatched run has a segment left, or every MC that has one has a full
// ring — it parks. Dispatch and halt wake it at once; sends wake it only
// at a low-water mark, each time an MC has sent another aheadDepth/2
// segments. A woken helper so refills about half a ring, and main pays
// one thread wake-up per half-ring rather than one per send. Before
// blocking, the helper sets parked and then looks for a walk that can
// step; main frees a slot (or queues a run) and then loads parked.
// Whichever goes second sees the other, so no wake-up is lost: a ring
// too full for the helper's next segment holds aheadDepth segments whose
// slots main has yet to free, and freeing the first aheadDepth/2 of them
// crosses a low-water mark.

// aheadDepth is how many encoded segments each MC's ring holds: the
// helper's lookahead over that MC's sends.
const aheadDepth = 16

// segCode is one published segment: its data flit words then its in-band
// index flit words, wpf words per flit, and its out-of-band partner table
// (nil unless the strategy ships one out-of-band).
type segCode struct {
	words   []uint64
	flits   int
	partner []int
}

// aheadWalk is the helper's walk over one MC's segments — the same walk
// as the MC's feed — and c, the MC's index of the segment it is at.
type aheadWalk struct {
	mcFeed
	c uint64
}

// aheadSlot is one ring entry; state follows the slot protocol above.
type aheadSlot struct {
	state atomic.Uint64
	code  segCode
}

// segEncoder is the scratch of one goroutine's encodes: the gathered
// words and the flitized segment.
type segEncoder struct {
	w, x []bitutil.Word
	fz   flit.Flitized
	// pool lends the helper's FlitizeInto vectors, which it copies into a
	// slot and hands straight back; main encodes into the simulator's.
	pool *flit.Pool
}

// helperEncoders holds the scratch of the helpers not running: each start
// takes one and each halt returns it, so the scratch is warmed once per
// process rather than once per engine (a sweep or the benchmark builds an
// engine per measurement). It never holds more encoders than helpers ever
// ran at once. A sync.Pool would allocate again after every collection,
// which a served inference pays on most calls.
var helperEncoders struct {
	sync.Mutex
	free []*segEncoder
}

// encodeAhead is the engine's encode-ahead ring and the state its helper
// shares with the main goroutine. It is built once per engine and reset by
// every scheduler.
type encodeAhead struct {
	// Fixed at construction.
	mcs      int
	linkBits int
	wpf      int // backing words per flit
	opt      flit.Options
	oob      bool // partner tables travel out-of-band
	slots    []aheadSlot
	// loopFn is loop as a func value, made once so that starting a helper
	// allocates nothing.
	loopFn func()

	// Main goroutine only: each MC's next segment index, and the scratch
	// of inline encodes.
	sent   []uint64
	inline segEncoder

	// Helper goroutine only (help is set by start and cleared by halt):
	// each MC's walk over its segments, and the scratch.
	walks []aheadWalk
	help  *segEncoder

	// The dispatched runs, linked in dispatch order through
	// layerRun.queued: head holds the call's first run until the helper
	// starts its walks there, tail (main's) the latest.
	head atomic.Pointer[layerRun]
	tail *layerRun

	// Shared.
	stop atomic.Bool
	// parked is set while the helper waits for a walk that can step;
	// whoever clears it sends the one wake token.
	parked atomic.Bool
	wake   chan struct{}
	wg     sync.WaitGroup
}

// newEncodeAhead sizes the ring from the engine's widest per-layer
// geometry: the data flits of the largest segment any layer sends, plus
// its in-band index flits.
func newEncodeAhead(e *Engine) *encodeAhead {
	cfg := &e.cfg
	pairs := min(cfg.MaxSegmentPairs, maxFanIn(e.model))
	inBand := e.strategy.EmitsPartner() && cfg.InBandIndex
	a := &encodeAhead{
		mcs:      len(cfg.MCs),
		linkBits: cfg.Geometry.LinkBits,
		wpf:      (cfg.Geometry.LinkBits + 63) / 64,
		opt:      flit.Options{Ordering: cfg.Ordering, InBandIndex: cfg.InBandIndex},
		oob:      e.strategy.EmitsPartner() && !cfg.InBandIndex,
		slots:    make([]aheadSlot, len(cfg.MCs)*aheadDepth),
		wake:     make(chan struct{}, 1),
	}
	a.loopFn = a.loop
	a.sent = make([]uint64, a.mcs)
	a.walks = make([]aheadWalk, a.mcs)
	flits := 0
	for _, f := range e.layerFormats {
		g := cfg.Geometry.WithFormat(f)
		n := g.DataFlitCount(pairs)
		if inBand {
			n += g.IndexFlitCount(pairs)
		}
		flits = max(flits, n)
	}
	// Whole cache lines per slot, so the helper filling one slot never
	// writes a line main is reading out of its neighbour.
	size, psize := lines(flits*a.wpf), lines(pairs)
	words := make([]uint64, len(a.slots)*size)
	var partners []int
	if a.oob {
		partners = make([]int, len(a.slots)*psize)
	}
	for i := range a.slots {
		a.slots[i].code.words = words[i*size : i*size : (i+1)*size]
		if a.oob {
			a.slots[i].code.partner = partners[i*psize : i*psize : (i+1)*psize]
		}
	}
	return a
}

// lines rounds a count of 8-byte words up to whole 64-byte cache lines.
func lines(n int) int { return (n + 7) &^ 7 }

// maxFanIn returns the most (input, weight) pairs any task of the model
// carries: the largest segment the engine can send.
func maxFanIn(m *dnn.Model) int {
	n := 0
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *dnn.Conv2D:
			n = max(n, l.InC*l.K*l.K)
		case *dnn.Linear:
			n = max(n, l.In)
		}
	}
	return n
}

// reset readies the ring for a new scheduler: every slot free for the
// first segment that maps to it, no runs queued. No helper is running, so
// main owns everything here.
func (a *encodeAhead) reset() {
	for i := range a.slots {
		a.slots[i].state.Store(uint64(i%aheadDepth) << 1)
	}
	clear(a.sent)
	clear(a.walks)
	a.head.Store(nil)
	a.tail = nil
	a.stop.Store(false)
}

// start launches the helper.
func (a *encodeAhead) start() {
	var enc *segEncoder
	helperEncoders.Lock()
	if n := len(helperEncoders.free); n > 0 {
		enc = helperEncoders.free[n-1]
		helperEncoders.free = helperEncoders.free[:n-1]
	}
	helperEncoders.Unlock()
	if enc == nil {
		enc = &segEncoder{}
	}
	if enc.pool == nil || enc.pool.Width() != a.linkBits {
		enc.pool = flit.NewPool(a.linkBits)
	}
	a.help = enc
	a.wg.Add(1)
	go a.loopFn()
}

// halt stops the helper, waits for it to exit and drops the queued runs.
func (a *encodeAhead) halt() {
	a.stop.Store(true)
	a.unpark()
	a.wg.Wait()
	helperEncoders.Lock()
	helperEncoders.free = append(helperEncoders.free, a.help)
	helperEncoders.Unlock()
	a.help = nil
	clear(a.walks)
	a.head.Store(nil)
	a.tail = nil
}

// push hands the helper a newly dispatched run.
func (a *encodeAhead) push(run *layerRun) {
	if a.tail == nil {
		a.head.Store(run)
	} else {
		a.tail.queued.Store(run)
	}
	a.tail = run
	a.unpark()
}

// unpark wakes the helper if it is parked.
func (a *encodeAhead) unpark() {
	if a.parked.Load() && a.parked.CompareAndSwap(true, false) {
		a.wake <- struct{}{}
	}
}

// sentFreed follows every send at MC m, once the send has freed its slot:
// at each low-water mark it wakes a helper parked on full rings.
func (a *encodeAhead) sentFreed(m int) {
	if a.sent[m]%(aheadDepth/2) == 0 {
		a.unpark()
	}
}

func (a *encodeAhead) slot(m int, c uint64) *aheadSlot {
	return &a.slots[m*aheadDepth+int(c%aheadDepth)]
}

// take returns the published slot of MC m's next segment, or nil after
// claiming it for an inline encode when the helper has not published it.
// A returned slot belongs to main until release.
func (a *encodeAhead) take(m int) *aheadSlot {
	c := a.sent[m]
	a.sent[m]++
	sl := a.slot(m, c)
	if sl.state.Load() != c<<1|1 && sl.state.CompareAndSwap(c<<1, (c+aheadDepth)<<1) {
		a.sentFreed(m)
		return nil
	}
	if st := sl.state.Load(); st != c<<1|1 {
		panic(fmt.Sprintf("accel: encode-ahead slot of MC %d segment %d in state %#x", m, c, st))
	}
	return sl
}

// release frees MC m's taken slot for the segment aheadDepth further on.
func (a *encodeAhead) release(m int, sl *aheadSlot) {
	sl.state.Store((sl.state.Load()>>1 + aheadDepth) << 1)
	a.sentFreed(m)
}

// loop is the helper: it walks every MC's segments of the dispatched runs,
// encoding each into the MC's ring while the ring has room, until halted.
// The walks advance independently, so an MC that falls behind holds up
// only its own ring. When no walk can step, it parks (see Wait policy).
func (a *encodeAhead) loop() {
	defer a.wg.Done()
	//nocbtlint:ignore ctxcheck: halt sets stop on every exit path of the scheduler, which polls the context
	for !a.stop.Load() {
		if !a.sweep() {
			a.park()
		}
	}
}

// park blocks the helper until main dispatches a run, reaches a low-water
// mark or halts it, unless a walk can step or halt came by the time parked
// is visible.
func (a *encodeAhead) park() {
	a.parked.Store(true)
	if a.stop.Load() || a.ready() {
		if a.parked.CompareAndSwap(true, false) {
			return
		}
	}
	<-a.wake
}

// ready reports whether any MC's walk can step.
func (a *encodeAhead) ready() bool {
	for m := range a.walks {
		if a.room(m) {
			return true
		}
	}
	return false
}

// room reports whether MC m's walk has a segment and the segment's slot is
// free of the one aheadDepth before it.
func (a *encodeAhead) room(m int) bool {
	if !a.position(m) {
		return false
	}
	c := a.walks[m].c
	return a.slot(m, c).state.Load()>>1 >= c
}

// sweep gives every MC's walk one step — encoding and publishing its next
// segment when the ring has room, skipping it when main already sent it —
// and reports whether any walk stepped.
func (a *encodeAhead) sweep() (stepped bool) {
	for m := range a.walks {
		if !a.room(m) {
			continue
		}
		wk := &a.walks[m]
		c := wk.c
		sl := a.slot(m, c)
		if sl.state.Load() == c<<1 {
			a.publish(sl, c, wk.run, wk.task, wk.next)
		}
		wk.c++
		wk.step(a.mcs)
		stepped = true
	}
	return stepped
}

// position moves MC m's walk onto its next segment, into the next
// dispatched run when the current one has no more, and reports whether
// there is one.
func (a *encodeAhead) position(m int) bool {
	wk := &a.walks[m]
	//nocbtlint:ignore ctxcheck: bounded by the dispatched runs; each iteration moves to the next run or returns
	for wk.run == nil || wk.next < 0 {
		var run *layerRun
		if wk.run == nil {
			// The first run starts every walk; dropping it from head lets
			// the walks alone keep dispatched runs reachable.
			if run = a.head.Swap(nil); run != nil {
				for i := range a.walks {
					a.walks[i].mcFeed = feedAt(run, i)
				}
			}
		} else if run = wk.run.queued.Load(); run != nil {
			wk.mcFeed = feedAt(run, m)
		}
		if run == nil {
			return false
		}
	}
	return true
}

// publish encodes segment k of run, of task ti, into slot sl and
// publishes it as MC segment c, unless main claimed the segment meanwhile.
// A failed encode publishes nothing: main meets the same error when it
// encodes the segment inline, and reports it.
func (a *encodeAhead) publish(sl *aheadSlot, c uint64, run *layerRun, ti, k int) {
	enc := a.help
	if a.oob {
		enc.fz.PartnerIndex = sl.code.partner
	}
	err := a.encode(enc, run, ti, k, enc.pool)
	if a.oob {
		sl.code.partner, enc.fz.PartnerIndex = enc.fz.PartnerIndex, nil
	}
	if err == nil {
		sl.code.store(enc)
		sl.state.CompareAndSwap(c<<1, c<<1|1)
	}
}

// encode gathers, orders and flitizes segment k of run, of task ti, into
// enc.fz, drawing the payload vectors from pool. The caller's walk carries
// (ti, k); encode reads only what is fixed once the run is dispatched —
// the layer's codec and tensors and segStart — so both goroutines run it.
func (a *encodeAhead) encode(enc *segEncoder, run *layerRun, ti, k int, pool *flit.Pool) error {
	seg, n := run.segment(ti, k)
	enc.w = slices.Grow(enc.w[:0], n)[:n]
	enc.x = slices.Grow(enc.x[:0], n)[:n]
	run.layer.gather(ti, seg*run.maxSeg, enc.w, enc.x)
	var bias bitutil.Word
	if k+1 == int(run.segStart[ti+1]) {
		bias = run.layer.bias(ti) // only the final segment carries the bias
	}
	return flit.FlitizeInto(run.geom, flit.Task{Inputs: enc.x, Weights: enc.w, Bias: bias}, a.opt, pool, &enc.fz)
}

// store copies enc's flitized payload words into c, handing the vectors
// back to enc's pool.
func (c *segCode) store(enc *segEncoder) {
	c.words = c.words[:0]
	for _, v := range enc.fz.Data {
		c.words = append(c.words, v.Words()...)
		enc.pool.PutVec(v)
	}
	for _, v := range enc.fz.Index {
		c.words = append(c.words, v.Words()...)
		enc.pool.PutVec(v)
	}
	c.flits = len(enc.fz.Data) + len(enc.fz.Index)
}

// appendVecs appends c's flits to dst as vectors drawn from pool.
func (c *segCode) appendVecs(dst []bitutil.Vec, pool *flit.Pool, wpf int) []bitutil.Vec {
	for i := range c.flits {
		v := pool.Vec()
		copy(v.Words(), c.words[i*wpf:(i+1)*wpf])
		dst = append(dst, v)
	}
	return dst
}
