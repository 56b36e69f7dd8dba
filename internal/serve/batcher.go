package serve

import (
	"context"
	"fmt"
	"time"

	"nocbt/internal/accel"
	"nocbt/internal/tensor"
)

// Batcher coalesces single-inference requests into Engine.InferBatch
// calls against one pool shard. The batching discipline is adaptive: the
// first request of a batch starts a flush deadline, and the batch flushes
// as soon as it reaches MaxBatch requests or the deadline fires —
// whichever comes first. Under load the mesh therefore runs full
// micro-batches; a lone request pays at most the window in extra latency.
//
// Flushes run concurrently up to the shard's replica count (Acquire
// blocks on the free list), so the collector goroutine keeps batching
// while earlier batches are still on a mesh.
type Batcher struct {
	shard    *Shard
	maxBatch int
	window   time.Duration
	metrics  *Metrics

	// ctx is the batcher's lifecycle: it gates engine acquisition and the
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
// 1 (no coalescing); window <= 0 flushes without waiting beyond the
// requests already queued. The batcher stops when ctx is cancelled.
func NewBatcher(ctx context.Context, shard *Shard, maxBatch int, window time.Duration, metrics *Metrics) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	b := &Batcher{
		shard:    shard,
		maxBatch: maxBatch,
		window:   window,
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

// collect is the batching loop: one goroutine per batcher accumulates
// jobs into batches and hands each batch to a flush goroutine.
func (b *Batcher) collect() {
	for {
		var first *inferJob
		select {
		case first = <-b.reqs:
		case <-b.ctx.Done():
			return
		}
		batch := []*inferJob{first}
		switch {
		case b.maxBatch <= 1:
			// No coalescing.
		case b.window <= 0:
			// Drain whatever is already queued, without waiting.
		drain:
			for len(batch) < b.maxBatch {
				select {
				case job := <-b.reqs:
					batch = append(batch, job)
				default:
					break drain
				}
			}
		default:
			timer := time.NewTimer(b.window)
		fill:
			for len(batch) < b.maxBatch {
				select {
				case job := <-b.reqs:
					batch = append(batch, job)
				case <-timer.C:
					break fill
				case <-b.ctx.Done():
					timer.Stop()
					b.fail(batch, fmt.Errorf("serve: batcher shut down: %w", b.ctx.Err()))
					return
				}
			}
			timer.Stop()
		}
		go b.flush(batch)
	}
}

// flush runs one micro-batch on a warm engine from the shard, recording
// the flush-latency and achieved-batch-size distributions and a
// batch.flush span (each flush gets its own trace track: flushes from one
// shard overlap up to the replica count). The flush is recorded before any
// requester is answered, so a client holding its response already finds
// this flush in /metrics and /debug/trace.
func (b *Batcher) flush(batch []*inferJob) {
	t := b.metrics.Spans
	sp := t.Begin("batch.flush", "serve", servePID, t.NextTID(), t.Ticks()).
		SetAttrInt("batch_size", int64(len(batch))).
		SetAttr("shard", b.shard.Key())
	flushStart := time.Now()
	outs, stats, err := b.infer(batch)
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

// infer acquires a warm engine, runs the batch on it and returns one
// output and one per-inference stat per job.
func (b *Batcher) infer(batch []*inferJob) ([]*tensor.Tensor, []accel.InferenceStat, error) {
	eng, release, err := b.shard.Acquire(b.ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()

	inputs := make([]*tensor.Tensor, len(batch))
	for i, job := range batch {
		inputs[i] = job.input
	}
	outs, err := eng.InferBatch(b.ctx, inputs)
	if err != nil {
		// release() sees Reusable() == false for poisoned engines and
		// retires them; the next flush acquires a rebuilt replica.
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
