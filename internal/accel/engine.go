package accel

import (
	"context"
	"fmt"

	"nocbt/internal/bitutil"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/obs"
	"nocbt/internal/tensor"
)

// Engine executes a DNN model on the simulated NOC-DNA platform. Create one
// per (platform, model, ordering) combination; BT counters accumulate across
// every Infer/InferBatch call, mirroring the paper's whole-workload
// measurements. On a fixed-point platform without in-band index flits one
// engine can also measure several orderings of the same traffic at once
// (see CountOrderings).
//
// The engine holds no per-layer or per-packet execution state: quantization
// scales, partner tables and packet bookkeeping live in the scheduler
// context of each call (see scheduler.go), which is what lets InferBatch
// keep several inferences in flight on the mesh at once. The engine keeps
// only the storage of that context — run slabs, the call's tables, spare
// partner tables and quantized weight buffers — for its next call to
// reuse.
//
// A run that fails after traffic reached the mesh — context cancellation,
// deadline expiry, or a protocol error — leaves that run's flits behind
// and its BT/cycle counters polluted. The engine marks itself unusable
// and every later Infer/InferBatch call returns a descriptive error:
// build a fresh engine instead (the sweep runner already uses one engine
// per measurement). Failures before any dispatch (validation, a context
// cancelled before the first cycle) leave the engine untouched.
type Engine struct {
	cfg   Config
	model *dnn.Model
	sim   *noc.Sim
	pes   []int
	// isPE marks the PE nodes, so the PE collector skips MCs among the
	// nodes holding ejected packets.
	isPE []bool
	// orderings are the orderings the engine's traffic carries, each in a
	// wire image of its own (see CountOrderings): orderings[0] is
	// cfg.Ordering, the rest were added by CountOrderings. It aliases
	// ordering0 until CountOrderings adds one.
	orderings []flit.Ordering
	ordering0 [1]flit.Ordering
	// oob says whether task packets carry out-of-band partner tables: some
	// ordering emits one and the platform ships no index flits. inBand
	// says whether the partner table travels in index flits instead,
	// which only an engine of one ordering can carry.
	oob, inBand bool
	// codings counts the link codings installed on sim: coding 0 is
	// cfg.LinkCoding, the rest were added by CountCodings.
	codings int

	// layerFormats[i] is the lane format of the model's i-th NoC layer
	// (conv/linear, in model order), resolved in New from the platform's
	// precision schedule (or the geometry format for every layer when no
	// schedule is set).
	layerFormats []bitutil.Format

	nextPacketID uint64

	layers []LayerStat

	taskPackets   int64
	resultPackets int64

	// Energy activity counters, accumulated across every inference like
	// the BT counters (see EnergyCounters). The accel package records raw
	// activity only; converting it to joules is hwmodel's business.
	totalFlits    int64
	macOps        int64
	macBitOps     int64
	weightRegBits int64

	lastBatch BatchStats

	// Packet building and deflitization scratch, reused across every
	// packet the engine ever builds or decodes so a warm engine's dispatch
	// and PE paths stop allocating (the backing vectors come from the
	// simulator's flit pool). partnerScratch holds the in-band partner
	// table being decoded.
	payloadScratch []bitutil.Vec
	peScratch      []bitutil.Vec
	deflitScratch  flit.Task
	partnerScratch []int
	// enc is the MC codec's scratch (segEncoder), reused by every segment
	// send encodes. partners holds the out-of-band partner tables of the
	// task packets in flight, one per ordering, and spare tables for send
	// to hand to enc.
	enc      segEncoder
	partners partnerTables
	// stateSlab, startSlab and actSlab hold the segment states, task
	// offsets and quantized activations of every layer run (see slab): a
	// call's runs take exact-size slices, and the next call reuses them.
	stateSlab slab[segState]
	startSlab slab[int32]
	actSlab   slab[int32]
	// tables is the storage of the call's scheduler tables (callTables).
	tables callTables
	// weights[i] holds NoC layer i's quantized weights and biases, which
	// the layer's first dispatch in call number call fills; made by the
	// first fixed-point dispatch.
	weights []layerWeights
	call    uint64

	// aborted records the error of a run that died after dispatching
	// traffic; once set, the mesh state is indeterminate and the engine
	// refuses further inferences.
	aborted error

	// spans mirrors the simulator's span tracer (see SetSpanTracer); the
	// scheduler emits per-layer phase spans onto the same process track the
	// mesh uses for packet lifecycles. Concrete pointer, nil when disabled.
	spans   *obs.Tracer
	spanPID int64
}

// usable reports whether the engine can run another inference.
func (e *Engine) usable() error {
	if e.aborted != nil {
		return fmt.Errorf("accel: engine unusable after an aborted run (%v); create a new engine", e.aborted)
	}
	return nil
}

// noteAbort poisons the engine if the failed run reached the mesh: its
// flits may still be queued, buffered or in flight, and a later scheduler
// would reject them as unknown packets. Runs that failed before any
// dispatch leave the engine untouched.
func (e *Engine) noteAbort(err error, startTasks int64) {
	if e.taskPackets == startTasks && !e.sim.Busy() {
		return
	}
	e.aborted = err
}

// LayerStat records one executed layer's traffic.
type LayerStat struct {
	Name string
	// Inference is the batch index of the inference this layer belonged to
	// (always 0 for single-inference Infer calls).
	Inference int
	// NoC traffic exists only for conv/linear layers.
	OverNoC bool
	Cycles  int64
	// BT is the mesh-wide bit-transition delta over the layer's flight.
	// With concurrent inferences, overlapping layers observe shared links,
	// so per-layer BT attribution is only exact for serial execution.
	BT      int64
	Packets int64
	Flits   int64
	Tasks   int
}

// InferenceStat records one batch inference's timing.
type InferenceStat struct {
	// Index is the inference's position in the InferBatch inputs.
	Index int
	// StartCycle and EndCycle are engine cycle stamps: dispatch of the
	// first layer and collection of the last result.
	StartCycle int64
	EndCycle   int64
}

// LatencyCycles returns the inference's start-to-finish latency.
func (s InferenceStat) LatencyCycles() int64 { return s.EndCycle - s.StartCycle }

// BatchStats aggregates one Infer or InferBatch call.
type BatchStats struct {
	// Inferences is the batch size.
	Inferences int
	// Cycles is the simulated time the whole batch occupied the mesh.
	Cycles int64
	// BT is the bit-transition delta the batch caused.
	BT int64
	// TaskPackets and ResultPackets count the batch's traffic.
	TaskPackets   int64
	ResultPackets int64
	// PerInference holds one entry per input, in input order.
	PerInference []InferenceStat
	// AvgLatencyCycles and MaxLatencyCycles summarize per-inference
	// latency; with concurrent flows latencies overlap, so the sum of
	// latencies exceeds Cycles.
	AvgLatencyCycles float64
	MaxLatencyCycles int64
}

// Throughput returns inferences per thousand simulated cycles — the
// figure-of-merit InferBatch improves over serial Infer calls.
func (b BatchStats) Throughput() float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(b.Inferences) * 1000 / float64(b.Cycles)
}

// New validates the configuration and builds the platform.
func New(cfg Config, model *dnn.Model) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("accel: nil model")
	}
	if len(model.Layers) == 0 {
		return nil, fmt.Errorf("accel: model %q has no layers", model.Name())
	}
	// The engine's own LinkCoding is the first coding installed: coding 0.
	// Validate has resolved its name.
	coding, _ := flit.LookupLinkCoding(cfg.LinkCoding)
	sim, err := noc.New(cfg.Mesh, coding)
	if err != nil {
		return nil, err
	}
	strategy, ok := flit.OrderingStrategyByID(cfg.Ordering)
	if !ok {
		return nil, fmt.Errorf("accel: unknown ordering %d (registered: %v)", int(cfg.Ordering), flit.OrderingNames())
	}
	formats, err := resolveLayerFormats(cfg, model)
	if err != nil {
		return nil, err
	}
	pes := cfg.PEs()
	isPE := make([]bool, cfg.Mesh.Nodes())
	for _, pe := range pes {
		isPE[pe] = true
	}
	e := &Engine{
		cfg:          cfg,
		model:        model,
		sim:          sim,
		pes:          pes,
		isPE:         isPE,
		layerFormats: formats,
		codings:      1,
		oob:          strategy.EmitsPartner() && !cfg.InBandIndex,
		inBand:       strategy.EmitsPartner() && cfg.InBandIndex,
		partners:     partnerTables{k: 1},
	}
	e.ordering0[0] = cfg.Ordering
	e.orderings = e.ordering0[:]
	return e, nil
}

// resolveLayerFormats expands the platform's precision schedule against
// the model: one lane format per NoC layer (conv/linear, in model order).
// A single-entry schedule broadcasts its width to every layer; a
// multi-entry schedule must match the model's NoC layer count exactly.
func resolveLayerFormats(cfg Config, model *dnn.Model) ([]bitutil.Format, error) {
	nocLayers := 0
	for _, l := range model.Layers {
		switch l.(type) {
		case *dnn.Conv2D, *dnn.Linear:
			nocLayers++
		}
	}
	formats := make([]bitutil.Format, nocLayers)
	for i := range formats {
		formats[i] = cfg.Geometry.Format
	}
	if len(cfg.Precisions) == 0 {
		return formats, nil
	}
	if len(cfg.Precisions) != 1 && len(cfg.Precisions) != nocLayers {
		return nil, fmt.Errorf("accel: precision schedule has %d entries but model %q has %d NoC layers (want 1 or %d)",
			len(cfg.Precisions), model.Name(), nocLayers, nocLayers)
	}
	for i := range formats {
		bits := cfg.Precisions[0]
		if len(cfg.Precisions) > 1 {
			bits = cfg.Precisions[i]
		}
		f, err := bitutil.FixedN(bits)
		if err != nil {
			return nil, fmt.Errorf("accel: precision schedule entry %d: %w", i, err)
		}
		formats[i] = f
	}
	return formats, nil
}

// Config returns the engine's configuration (after defaulting).
func (e *Engine) Config() Config { return e.cfg }

// SetTrace installs a flit-delivery observer on the engine's mesh (nil
// disables tracing). Trace consumers see the raw payload patterns; with a
// link coding installed the simulator's BT counters reflect the coded wire
// activity, so recounting a coded run's trace needs the matching scheme
// (see trace.Recorder.CodedBT). An engine counting several orderings
// carries payloads no trace replay can recount, so it refuses a trace.
func (e *Engine) SetTrace(fn noc.TraceFunc) error { return e.sim.SetTrace(fn) }

// SetSpanTracer installs (or, with nil, removes) an obs span tracer on the
// engine and its mesh: the simulator records packet lifecycles, the
// scheduler adds per-layer inference phases (quantize+flitize, route, MAC,
// collect), all on one process track per engine. Timestamps are simulation
// cycles. A nil tracer keeps the hot path allocation-free.
func (e *Engine) SetSpanTracer(t *obs.Tracer) {
	e.spans = t
	e.sim.SetSpanTracer(t)
	e.spanPID = e.sim.SpanPID()
}

// CountCodings counts each named link coding on every crossing of the
// engine's mesh beside its own LinkCoding, which keeps driving TotalBT
// (see noc.Sim.SetLinkCodings). Codings are numbered in installation
// order across calls, after the engine's own coding 0; CodedBT(i) reads
// coding i. Call it before the first inference. If a name is unknown or a
// coding rejects the link width, nothing from this call is installed.
func (e *Engine) CountCodings(names ...string) error {
	schemes := make([]flit.LinkCodingScheme, len(names))
	for i, name := range names {
		scheme, ok := flit.LookupLinkCoding(name)
		if !ok {
			return fmt.Errorf("accel: unknown link coding %q (registered: %v)", name, flit.LinkCodingNames())
		}
		schemes[i] = scheme
	}
	if err := e.sim.SetLinkCodings(e.codings, schemes...); err != nil {
		return err
	}
	e.codings += len(schemes)
	return nil
}

// CodedBT returns the accumulated transitions of coding i over the same
// links as TotalBT: coding 0 is the engine's own LinkCoding, so CodedBT(0)
// equals TotalBT, and codings 1.. are those CountCodings added.
func (e *Engine) CodedBT(i int) int64 { return e.sim.CodedBT(i) }

// CountOrderings measures each listed ordering on the engine's traffic
// beside its own cfg.Ordering, on the same simulation: every flit carries
// one wire image per ordering (noc.Sim.SetImages), the MCs encode each
// segment once per ordering, and every link coding counts every image.
// Orderings are numbered in installation order across calls, after the
// engine's own ordering 0; OrderingBT(o, i) reads ordering o under coding
// i. This is exact only when the orderings cannot change the traffic, so
// it is refused for a float layer, whose partial sums depend on the order
// they are added in, and for in-band index flits, which change packet
// lengths. In a fixed-point layer the PE's exact integer MAC makes every
// ordering's partial sum the same, and the PE checks that it is. Call it
// before the first inference. If an ordering is unknown or the engine
// cannot count it, nothing from this call is installed.
func (e *Engine) CountOrderings(orderings ...flit.Ordering) error {
	if len(orderings) == 0 {
		return nil
	}
	if e.sim.Cycle() != 0 || e.sim.Busy() {
		return fmt.Errorf("accel: orderings must be counted before any traffic")
	}
	for i, f := range e.layerFormats {
		if !f.IsFixed() {
			return fmt.Errorf("accel: cannot count orderings on one simulation: NoC layer %d is %s, whose partial sums depend on the ordering", i, f)
		}
	}
	all := append(e.orderings[:len(e.orderings):len(e.orderings)], orderings...)
	oob := false
	for _, o := range all {
		strategy, ok := flit.OrderingStrategyByID(o)
		if !ok {
			return fmt.Errorf("accel: unknown ordering %d (registered: %v)", int(o), flit.OrderingNames())
		}
		if strategy.EmitsPartner() && e.cfg.InBandIndex {
			return fmt.Errorf("accel: cannot count orderings on one simulation: ordering %s ships its partner table in in-band index flits, which change packet lengths", strategy.Name())
		}
		oob = oob || strategy.EmitsPartner()
	}
	if err := e.sim.SetImages(len(all)); err != nil {
		return err
	}
	e.orderings, e.oob, e.partners.k = all, oob, len(all)
	return nil
}

// OrderingBT returns the accumulated transitions of ordering o under
// coding i over the same links as TotalBT: ordering 0 is the engine's own
// cfg.Ordering, so OrderingBT(0, i) equals CodedBT(i), and orderings 1..
// are those CountOrderings added.
func (e *Engine) OrderingBT(o, i int) int64 { return e.sim.ImageBT(o, i) }

// layerFormat returns the lane format of NoC layer idx (the geometry
// format for indices beyond the resolved schedule, which cannot happen on
// a validated engine).
func (e *Engine) layerFormat(idx int) bitutil.Format {
	if idx >= 0 && idx < len(e.layerFormats) {
		return e.layerFormats[idx]
	}
	return e.cfg.Geometry.Format
}

// layerGeometry returns the flit geometry of NoC layer idx: the platform's
// physical link width with the layer's lane format. Narrower layers pack
// more lanes into the same link, shipping proportionally fewer flits.
func (e *Engine) layerGeometry(idx int) flit.Geometry {
	return e.cfg.Geometry.WithFormat(e.layerFormat(idx))
}

// nextID allocates a packet ID.
func (e *Engine) nextID() uint64 {
	e.nextPacketID++
	return e.nextPacketID
}

// Infer runs one forward pass: a batch of one through InferBatch's path,
// so it records LayerStats and LastBatchStats like any other call. Conv
// and linear layers travel through the NoC as task/result packets; other
// layers execute memory-side. The context cancels or deadline-bounds the
// simulation: the scheduler polls it between cycles, so a cancelled
// inference returns ctx.Err() promptly instead of simulating to
// completion.
func (e *Engine) Infer(ctx context.Context, input *tensor.Tensor) (*tensor.Tensor, error) {
	if input == nil {
		return nil, fmt.Errorf("accel: nil input")
	}
	var out [1]*tensor.Tensor
	if err := e.run(ctx, []*tensor.Tensor{input}, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// InferBatch runs every input through the model. Under the paper-faithful
// SerialLayers default the batch executes one inference at a time,
// bit-and-cycle identical to serial Infer calls; under
// Config.LayerMode == PipelinedLayers all inferences share the mesh
// concurrently — each inference's layers still execute serially (layer N+1
// dispatches only after layer N's results are collected), but different
// inferences overlap freely, so the mesh stays busy through layer tails
// and compute latencies that leave it idle in serial mode.
//
// In both modes outputs are bit-identical to len(inputs) serial Infer
// calls on a fresh engine: flitize/deflitize and the MAC reduction are
// deterministic in the packet data alone, and partial sums reduce in fixed
// segment order, so timing interleave cannot change any result. Per-batch
// throughput and latency figures are available from LastBatchStats after
// the call. Cancelling the context aborts the batch between simulator
// cycles with ctx.Err().
func (e *Engine) InferBatch(ctx context.Context, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("accel: empty batch")
	}
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("accel: nil input %d", i)
		}
	}
	outs := make([]*tensor.Tensor, len(inputs))
	if err := e.run(ctx, inputs, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// run executes the non-nil inputs as one batch, writes input i's output to
// outs[i], and replaces the per-call records: LayerStats and
// LastBatchStats. A failed call leaves the previous call's records.
func (e *Engine) run(ctx context.Context, inputs, outs []*tensor.Tensor) error {
	if err := e.usable(); err != nil {
		return err
	}
	startCycle := e.sim.Cycle()
	startBT := e.sim.TotalBT()
	startTasks, startResults := e.taskPackets, e.resultPackets

	// Every layer of the model records exactly one LayerStat, so flow i
	// fills exactly layers[i*n:(i+1)*n] and the slab is the call's
	// LayerStats, grouped per inference.
	n := len(e.model.Layers)
	layers := make([]LayerStat, len(inputs)*n)
	flows := make([]flow, len(inputs))
	for i, in := range inputs {
		flows[i] = flow{idx: i, act: in, layers: layers[i*n : i*n : (i+1)*n]}
	}
	s := newScheduler(ctx, e, flows)
	if err := s.run(); err != nil {
		e.noteAbort(err, startTasks)
		return err
	}

	stats := BatchStats{
		Inferences:    len(flows),
		Cycles:        e.sim.Cycle() - startCycle,
		BT:            e.sim.TotalBT() - startBT,
		TaskPackets:   e.taskPackets - startTasks,
		ResultPackets: e.resultPackets - startResults,
		PerInference:  make([]InferenceStat, len(flows)),
	}
	var latencySum int64
	for i := range flows {
		f := &flows[i]
		outs[i] = f.act
		st := InferenceStat{Index: i, StartCycle: f.startCycle, EndCycle: f.endCycle}
		stats.PerInference[i] = st
		lat := st.LatencyCycles()
		latencySum += lat
		if lat > stats.MaxLatencyCycles {
			stats.MaxLatencyCycles = lat
		}
	}
	stats.AvgLatencyCycles = float64(latencySum) / float64(len(flows))
	e.layers = layers
	e.lastBatch = stats
	return nil
}

// LastBatchStats returns the throughput/latency record of the most recent
// Infer or InferBatch call (zero value before the first one).
func (e *Engine) LastBatchStats() BatchStats { return e.lastBatch }

// Aborted returns the error that poisoned the engine, or nil while the
// engine is still usable. Once non-nil it never resets: the mesh state of
// an aborted run is indeterminate, so the only recovery is a new engine.
func (e *Engine) Aborted() error { return e.aborted }

// Reusable reports whether the engine can serve another inference — the
// lifecycle hook pools of warm engines use to decide between returning an
// engine to the free list and retiring it for a rebuilt replacement.
func (e *Engine) Reusable() bool { return e.aborted == nil }
