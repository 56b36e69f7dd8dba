package serve

import (
	"context"
	"fmt"
	"slices"
	"time"

	"nocbt/internal/accel"
	"nocbt/internal/tensor"
)

// Batcher coalesces single-inference requests into Engine.InferBatch
// calls against one pool shard. The discipline is work-conserving: the
// collector queues every request it receives, and whenever a replica slot
// is free while requests wait, it hands the slot a batch at once. The
// batch is one request while another replica is also free, and otherwise
// every queued request up to MaxBatch. A request that finds an idle
// replica therefore runs at once, and requests coalesce only while every
// replica is busy, which is when batching saves time.
//
// Each batch runs on its own flush goroutine, which warms the slot
// (building the engine if the slot is cold) and releases it after
// InferBatch, so the collector never blocks on an engine build and keeps
// queueing while earlier batches are still on a mesh.
type Batcher struct {
	shard    *Shard
	maxBatch int
	metrics  *Metrics

	// ctx is the batcher's lifecycle: it gates replica slots and the
	// simulations themselves, so cancelling it fails pending requests
	// instead of stranding them.
	ctx  context.Context
	reqs chan *inferJob
}

// inferJob is one queued inference. done is buffered so a flush can
// deliver the outcome even after the requester gave up.
type inferJob struct {
	input *tensor.Tensor
	done  chan inferDone
}

// inferDone is the outcome delivered to one requester.
type inferDone struct {
	output    *tensor.Tensor
	stat      accel.InferenceStat
	batchSize int
	err       error
}

// NewBatcher starts a batcher over the shard. maxBatch < 1 is treated as
// 1 (no coalescing). The batcher stops when ctx is cancelled.
func NewBatcher(ctx context.Context, shard *Shard, maxBatch int, metrics *Metrics) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	b := &Batcher{
		shard:    shard,
		maxBatch: maxBatch,
		metrics:  metrics,
		ctx:      ctx,
		reqs:     make(chan *inferJob),
	}
	go b.collect()
	return b
}

// Do submits one input and blocks until its inference completes, the
// request context is done, or the batcher shuts down. The returned stat
// is the per-inference timing inside whatever micro-batch the request
// landed in; batchSize reports that batch's size.
func (b *Batcher) Do(ctx context.Context, input *tensor.Tensor) (*tensor.Tensor, accel.InferenceStat, int, error) {
	if input == nil {
		return nil, accel.InferenceStat{}, 0, fmt.Errorf("serve: nil input")
	}
	job := &inferJob{input: input, done: make(chan inferDone, 1)}
	select {
	case b.reqs <- job:
	case <-ctx.Done():
		return nil, accel.InferenceStat{}, 0, ctx.Err()
	case <-b.ctx.Done():
		return nil, accel.InferenceStat{}, 0, fmt.Errorf("serve: batcher shut down: %w", b.ctx.Err())
	}
	select {
	case d := <-job.done:
		return d.output, d.stat, d.batchSize, d.err
	case <-ctx.Done():
		// The flush carrying this job keeps running (a micro-batch serves
		// other requesters too); the buffered done channel absorbs its
		// late outcome.
		return nil, accel.InferenceStat{}, 0, ctx.Err()
	}
}

// collect is the batching loop: one goroutine per batcher accepts
// requests into its queue and pairs each batch with a free replica slot.
// The queue-depth gauge counts a request from here until the flush that
// ran it releases its slot.
func (b *Batcher) collect() {
	var queue []*inferJob
	for {
		var free <-chan *slot // nil, so never ready, while nothing waits
		if len(queue) > 0 {
			free = b.shard.free()
		}
		select {
		case job := <-b.reqs:
			b.metrics.QueueDepth.Add(1)
			queue = append(queue, job)
		case sl := <-free:
			n := 1 // another replica is free: the rest of the queue runs there
			if !b.shard.idle() {
				n = min(len(queue), b.maxBatch)
			}
			batch := slices.Clone(queue[:n])
			queue = slices.Delete(queue, 0, n)
			go b.flush(batch, sl)
		case <-b.ctx.Done():
			b.metrics.QueueDepth.Add(-int64(len(queue)))
			b.fail(queue, fmt.Errorf("serve: batcher shut down: %w", b.ctx.Err()))
			return
		}
	}
}

// flush runs one micro-batch on the held slot's engine, recording the
// flush-latency and achieved-batch-size distributions and a batch.flush
// span (each flush gets its own trace track: flushes from one shard
// overlap up to the replica count). The flush is recorded before any
// requester is answered, so a client holding its response already finds
// this flush in /metrics and /debug/trace.
func (b *Batcher) flush(batch []*inferJob, sl *slot) {
	t := b.metrics.Spans
	sp := t.Begin("batch.flush", "serve", servePID, t.NextTID(), t.Ticks()).
		SetAttrInt("batch_size", int64(len(batch))).
		SetAttr("shard", b.shard.Key())
	flushStart := time.Now()
	outs, stats, err := b.infer(batch, sl)
	b.metrics.QueueDepth.Add(-int64(len(batch)))
	b.metrics.FlushLatency.Observe(time.Since(flushStart).Seconds())
	b.metrics.BatchSize.Observe(float64(len(batch)))
	t.End(sp, t.Ticks())
	if err != nil {
		b.fail(batch, err)
		return
	}
	b.metrics.InferBatches.Add(1)
	b.metrics.InferBatchedRequests.Add(int64(len(batch)))
	for i, job := range batch {
		job.done <- inferDone{output: outs[i], stat: stats[i], batchSize: len(batch)}
	}
}

// infer warms the held slot, runs the batch on its engine, releases the
// slot and returns one output and one per-inference stat per job.
func (b *Batcher) infer(batch []*inferJob, sl *slot) ([]*tensor.Tensor, []accel.InferenceStat, error) {
	eng, err := b.shard.warm(sl)
	if err != nil {
		return nil, nil, err
	}
	defer b.shard.release(sl)

	inputs := make([]*tensor.Tensor, len(batch))
	for i, job := range batch {
		inputs[i] = job.input
	}
	outs, err := eng.InferBatch(b.ctx, inputs)
	if err != nil {
		// release sees Reusable() == false for a poisoned engine and
		// retires it; the next flush on that slot builds a replacement.
		return nil, nil, err
	}
	stats := eng.LastBatchStats()
	if len(outs) != len(batch) || len(stats.PerInference) != len(batch) {
		// A broken engine implementation delivered fewer outputs or stats
		// than requests. The old code silently handed the short requesters
		// a zero-valued InferenceStat (latency 0); the whole batch fails
		// loudly instead — none of its results can be trusted.
		return nil, nil, fmt.Errorf(
			"serve: engine returned %d outputs and %d per-inference stats for a %d-request batch",
			len(outs), len(stats.PerInference), len(batch))
	}
	return outs, stats.PerInference, nil
}

// fail delivers err to every job of a batch.
func (b *Batcher) fail(batch []*inferJob, err error) {
	for _, job := range batch {
		job.done <- inferDone{err: err}
	}
}
