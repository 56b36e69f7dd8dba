package serve

import (
	"io"
	"runtime"

	"nocbt/internal/obs"
	"nocbt/internal/resultcache"
)

// Metrics counts serving traffic. All instruments are safe for concurrent
// use; /metrics renders them in the Prometheus text exposition format so
// any scraper (or a plain curl | grep) can read them.
//
// The counters are obs.Counter handles held directly by the hot paths —
// pre-resolved instruments, no registry lookup per event — and the
// histograms, gauges and runtime stats live on an obs.Registry built by
// NewMetrics. A zero-value Metrics (as the batcher and pool tests use)
// still counts: the pointer instruments stay nil and every obs method is
// nil-receiver safe, so only the scrape output is reduced.
type Metrics struct {
	// InferRequests counts /v1/infer requests accepted for execution.
	InferRequests obs.Counter
	// InferBatches counts Engine.InferBatch calls issued by the
	// micro-batcher; InferBatchedRequests sums their batch sizes, so
	// InferBatchedRequests/InferBatches is the achieved mean batch size.
	InferBatches         obs.Counter
	InferBatchedRequests obs.Counter
	// ExperimentRuns counts /v1/experiments/run requests that executed an
	// experiment (cache hits excluded).
	ExperimentRuns obs.Counter
	// EngineBuilds and EngineRetirements count warm-pool engine lifecycle
	// events: lazy shard construction and post-abort retirement.
	EngineBuilds      obs.Counter
	EngineRetirements obs.Counter
	// HTTPErrors counts requests answered with a 4xx/5xx status. It is
	// incremented centrally by the access middleware on the written status
	// code, so every error path — including mux-level 404/405s that never
	// reach a handler — counts exactly once.
	HTTPErrors obs.Counter
	// CachePutErrors counts result-cache stores that failed (disk tier
	// unwritable); the memory tier still served, so requests succeeded,
	// but restarts will not see those entries.
	CachePutErrors obs.Counter

	// InferLatency is the end-to-end /v1/infer latency distribution
	// (request arrival to response written), in seconds.
	InferLatency *obs.Histogram
	// FlushLatency is the micro-batcher's flush wall time (warming the
	// held replica, building its engine if cold, through InferBatch
	// return), in seconds.
	FlushLatency *obs.Histogram
	// BatchSize is the achieved micro-batch size at each flush.
	BatchSize *obs.Histogram
	// QueueDepth gauges inference requests in a micro-batcher, from the
	// collector accepting them until the flush that ran them releases its
	// replica; PoolShards gauges materialized warm-pool shards.
	QueueDepth *obs.Gauge
	PoolShards *obs.Gauge
	// HTTPResponses counts every response by status code, the labeled
	// superset of HTTPErrors.
	HTTPResponses *obs.LabeledCounter

	// Spans is the serving tier's always-on span ring (nil when tracing is
	// disabled), served at /debug/trace as Chrome trace-event JSON. The
	// ring overwrites its oldest spans, so the endpoint returns the most
	// recent window of activity.
	Spans *obs.Tracer

	reg *obs.Registry
}

// NewMetrics builds the serving metrics with the full instrument set and,
// for traceSpans > 0, an overwriting span ring of that capacity.
func NewMetrics(traceSpans int) *Metrics {
	m := &Metrics{
		InferLatency: obs.NewHistogram("nocbt_serve_infer_latency_seconds",
			"End-to-end /v1/infer request latency in seconds.", obs.LatencyBuckets()),
		FlushLatency: obs.NewHistogram("nocbt_serve_batch_flush_latency_seconds",
			"Micro-batch flush wall time in seconds (engine acquire through InferBatch).", obs.LatencyBuckets()),
		BatchSize: obs.NewHistogram("nocbt_serve_batch_size",
			"Achieved micro-batch size at flush.", obs.SizeBuckets()),
		QueueDepth: obs.NewGauge("nocbt_serve_pool_queue_depth",
			"Requests holding or waiting for a warm engine."),
		PoolShards: obs.NewGauge("nocbt_serve_pool_shards",
			"Materialized warm-pool shards."),
		HTTPResponses: obs.NewLabeledCounter("nocbt_serve_http_responses_total",
			"HTTP responses by status code.", "status"),
		reg: obs.NewRegistry(),
	}
	m.reg.Register(
		m.InferLatency, m.FlushLatency, m.BatchSize, m.QueueDepth, m.PoolShards,
		obs.NewGaugeFunc("nocbt_serve_goroutines", "Live goroutines.",
			func() float64 { return float64(runtime.NumGoroutine()) }),
		obs.NewGaugeFunc("nocbt_serve_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc).",
			func() float64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return float64(ms.HeapAlloc)
			}),
		m.HTTPResponses,
	)
	if traceSpans > 0 {
		m.Spans = obs.NewTracer(traceSpans)
		m.Spans.SetOverwrite(true)
	}
	return m
}

// WritePrometheus renders the counters (and the result cache's, when a
// cache is attached) and then the registry's histograms and gauges as
// Prometheus text. The counter block comes first, byte-identical to the
// pre-registry exposition. The counters are registered here, at scrape
// time, so a zero-value Metrics renders them too.
func (m *Metrics) WritePrometheus(w io.Writer, cache *resultcache.Cache) error {
	counters := obs.NewRegistry()
	counters.Register(
		obs.NewCounterFunc("nocbt_serve_infer_requests_total", "Inference requests accepted.", m.InferRequests.Load),
		obs.NewCounterFunc("nocbt_serve_infer_batches_total", "Micro-batched InferBatch calls issued.", m.InferBatches.Load),
		obs.NewCounterFunc("nocbt_serve_infer_batched_requests_total", "Inference requests summed over issued batches.", m.InferBatchedRequests.Load),
		obs.NewCounterFunc("nocbt_serve_experiment_runs_total", "Experiment executions (cache misses).", m.ExperimentRuns.Load),
		obs.NewCounterFunc("nocbt_serve_engine_builds_total", "Warm-pool engine constructions.", m.EngineBuilds.Load),
		obs.NewCounterFunc("nocbt_serve_engine_retirements_total", "Engines retired after an aborted run.", m.EngineRetirements.Load),
		obs.NewCounterFunc("nocbt_serve_http_errors_total", "Requests answered with an error status.", m.HTTPErrors.Load),
		obs.NewCounterFunc("nocbt_serve_cache_put_errors_total", "Result-cache stores that failed (disk tier unwritable).", m.CachePutErrors.Load),
	)
	if cache != nil {
		counters.Register(
			obs.NewCounterFunc("nocbt_serve_cache_hits_total", "Result cache hits.",
				func() int64 { return cache.Stats().Hits }),
			obs.NewCounterFunc("nocbt_serve_cache_misses_total", "Result cache misses.",
				func() int64 { return cache.Stats().Misses }),
			obs.NewCounterFunc("nocbt_serve_cache_disk_hits_total", "Result cache hits served by the disk tier.",
				func() int64 { return cache.Stats().DiskHits }),
			obs.NewCounterFunc("nocbt_serve_cache_disk_errors_total", "Result cache disk-tier reads that failed for a reason other than a cold key.",
				func() int64 { return cache.Stats().DiskErrors }),
			obs.NewCounterFunc("nocbt_serve_cache_evictions_total", "Result cache memory-tier evictions.",
				func() int64 { return cache.Stats().Evictions }),
		)
	}
	if err := counters.WritePrometheus(w); err != nil {
		return err
	}
	return m.reg.WritePrometheus(w)
}
