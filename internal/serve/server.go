// Package serve is the long-running serving layer over the nocbt
// simulator: an HTTP/JSON service that executes inference requests on a
// sharded pool of warm accelerator engines via a work-conserving
// micro-batcher, runs registered experiments, and answers repeated work
// from a content-addressed result cache.
//
// Endpoints:
//
//	GET  /healthz              liveness + uptime
//	GET  /metrics              Prometheus text counters
//	GET  /v1/experiments       registered experiments (name + description)
//	POST /v1/experiments/run   run one experiment, cached
//	POST /v1/infer             one inference, micro-batched, cached
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"nocbt"
	"nocbt/internal/accel"
	"nocbt/internal/dnn"
	"nocbt/internal/resultcache"
)

// Config parameterizes a Server. The zero value serves with the defaults
// documented on each field.
type Config struct {
	// Replicas is the number of warm engines per (platform, model, seed)
	// shard — the shard's maximum concurrent micro-batches. Default 2.
	Replicas int
	// MaxBatch bounds how many queued requests the micro-batcher
	// coalesces into one InferBatch call while every replica is busy; a
	// request that finds an idle replica runs at once. Default 8; 1
	// disables coalescing.
	MaxBatch int
	// CacheEntries bounds the result cache's memory tier. Default 1024:
	// enough to keep every result of a 20-second burst of two closed-loop
	// LeNet clients, so a replay of its first inputs still hits.
	CacheEntries int
	// CacheDir enables the cache's disk tier. Default: memory only.
	CacheDir string
	// MaxShards bounds how many distinct (platform, model, seed) shards
	// the server will materialize — each holds a model, warm engines and
	// a collector goroutine, so the bound protects the daemon against a
	// client enumerating the key space. Requests for a new shard beyond
	// the cap are refused with 503. Default 64.
	MaxShards int
	// Models registers the servable model families. Default:
	// DefaultModels() (lenet + darknet).
	Models map[string]ModelProvider
	// TraceSpans bounds the always-on serving span ring exposed at
	// /debug/trace (the ring overwrites its oldest spans, so the endpoint
	// returns the newest window). Default 4096; negative disables serving
	// spans entirely.
	TraceSpans int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiler exposes stack and heap internals, so it is
	// opt-in (btserved's -pprof flag).
	EnablePprof bool
	// Logger, when set, receives one structured access-log record per
	// request (request ID, method, path, status, duration). Default nil:
	// no access logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxShards == 0 {
		c.MaxShards = 64
	}
	if c.Models == nil {
		c.Models = DefaultModels()
	}
	if c.TraceSpans == 0 {
		c.TraceSpans = 4096
	}
	return c
}

// Server is the serving subsystem: pool, batchers, cache and HTTP surface.
// Create with New, expose with Handler, stop with Close.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *resultcache.Cache
	metrics *Metrics
	mux     *http.ServeMux
	handler http.Handler
	start   time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	batchers map[string]*shardHandle
}

// shardHandle pairs a shard's micro-batcher with the materialized model
// the shard serves. The model is shared read-only (input synthesis reads
// its shape; engines run on private clones), so one materialization per
// shard is enough. The sync.Once lets a slow first build (a trained
// model trains for seconds) block only requests for this shard, never
// the server-wide registration lock.
type shardHandle struct {
	once    sync.Once
	err     error
	batcher *Batcher
	model   *dnn.Model
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("serve: replicas %d < 1", cfg.Replicas)
	}
	if cfg.MaxShards < 1 {
		return nil, fmt.Errorf("serve: max shards %d < 1", cfg.MaxShards)
	}
	cache, err := resultcache.New(cfg.CacheEntries, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		metrics:  NewMetrics(cfg.TraceSpans),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		batchers: make(map[string]*shardHandle),
	}
	s.pool = NewPool(cfg.Replicas, s.metrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/experiments/run", s.handleExperimentRun)
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.withObservability(s.mux)
	return s, nil
}

// Handler returns the HTTP surface (the route mux behind the
// request-telemetry middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache returns the server's result cache.
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// Close stops the batchers; in-flight requests fail with a shutdown
// error. Safe to call more than once.
func (s *Server) Close() { s.cancel() }

// errTooManyShards refuses new shard materialization past Config.MaxShards.
var errTooManyShards = fmt.Errorf("serve: shard capacity exhausted; retry an existing (platform, model, seed) combination")

// httpError answers with a JSON error body carrying the request ID. Every
// error response flows through here (or through the mux's own 404/405),
// and the middleware counts them all from the written status — handlers no
// longer touch the error counter, so no exit path can be missed.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{
		"error":      err.Error(),
		"request_id": requestInfo(r).id,
	})
}

// writeJSON marshals v with indentation (the rendering every cacheable
// endpoint also stores, so hits replay byte-identical responses).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"shards":         s.pool.Shards(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, s.cache)
}

// handleDebugTrace serves the span ring as Chrome trace-event JSON —
// paste into https://ui.perfetto.dev to see the newest window of request,
// cache-lookup, batch-flush and engine-build spans. With TraceSpans < 0
// the document is empty but still valid.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.metrics.Spans.WriteChrome(w)
}

// cacheLookup wraps a result-cache read in a serving span on the request's
// track, recording whether it hit.
func (s *Server) cacheLookup(r *http.Request, key string) ([]byte, bool) {
	t := s.metrics.Spans
	sp := t.Begin("cache.lookup", "serve", servePID, requestInfo(r).tid, t.Ticks())
	body, ok := s.cache.Get(key)
	if ok {
		sp.SetAttr("result", "hit")
	} else {
		sp.SetAttr("result", "miss")
	}
	t.End(sp, t.Ticks())
	return body, ok
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type item struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []item
	for _, e := range nocbt.Experiments() {
		out = append(out, item{Name: e.Name(), Description: e.Describe()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExperimentRun executes a registered experiment and renders its
// Result as JSON. The response flows through the content-addressed cache:
// a repeated run with identical canonical parameters is answered from the
// cache with byte-identical JSON (X-Cache: hit) without re-simulating.
func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if _, ok := nocbt.LookupExperiment(req.Name); !ok {
		s.httpError(w, r, http.StatusNotFound,
			fmt.Errorf("unknown experiment %q (available: %v)", req.Name, nocbt.ExperimentNames()))
		return
	}
	params, err := req.Params.toParams()
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	key, err := nocbt.ExperimentCacheKey(req.Name, params)
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	if !req.NoCache {
		if body, ok := s.cacheLookup(r, key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "hit")
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			return
		}
	}
	res, err := nocbt.RunExperiment(r.Context(), req.Name, params)
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	s.metrics.ExperimentRuns.Add(1)
	body, err := nocbt.Render(res, nocbt.JSON)
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	if !req.NoCache {
		if err := s.cache.Put(key, []byte(body)); err != nil {
			s.metrics.CachePutErrors.Add(1)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(body))
}

// handleInfer serves one inference through the micro-batcher and warm
// pool. Identical requests are content-addressed in the result cache, so
// repeats replay the stored response without touching a mesh.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	var req InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Model == "" {
		req.Model = "lenet"
	}
	provider, ok := s.cfg.Models[req.Model]
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown model %q", req.Model))
		return
	}
	platform, err := req.Platform.Build()
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	fp, err := nocbt.PlatformFingerprint(platform)
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	key := resultcache.Key("infer", fp, req.Model,
		fmt.Sprint(req.Seed), fmt.Sprint(req.Trained), fmt.Sprint(req.InputSeed))
	if !req.NoCache {
		if body, ok := s.cacheLookup(r, key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "hit")
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			return
		}
	}
	s.metrics.InferRequests.Add(1)

	h, err := s.shardHandle(fp, req, provider, platform)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errTooManyShards) {
			status = http.StatusServiceUnavailable
		}
		s.httpError(w, r, status, err)
		return
	}
	out, stat, batchSize, err := h.batcher.Do(r.Context(), provider.Input(h.model, req.InputSeed))
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp := InferResponse{
		Model:               h.model.Name(),
		PlatformFingerprint: fp,
		Shape:               out.Shape(),
		Output:              out.Data,
		LatencyCycles:       stat.LatencyCycles(),
		BatchSize:           batchSize,
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n')
	if !req.NoCache {
		// The stored replay keeps only the parameter-deterministic fields:
		// latency and batch size depend on coalescing with other traffic,
		// so caching them would bind one traffic history's numbers to a
		// parameters-only content address. Cached flips once so hits are
		// distinguishable yet byte-stable across repeats.
		cached := resp
		cached.Cached = true
		cached.LatencyCycles = 0
		cached.BatchSize = 0
		cb, err := json.MarshalIndent(cached, "", "  ")
		if err == nil {
			if err := s.cache.Put(key, append(cb, '\n')); err != nil {
				s.metrics.CachePutErrors.Add(1)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// shardHandle returns the handle for one shard key, materializing the
// model and starting the micro-batcher on first use. Registration under
// s.mu is cheap; the (possibly slow) model build runs under the handle's
// own once, so a cold shard never head-of-line-blocks warm ones. The
// engine builder clones the shared model per replica so concurrent
// replicas never share mutable layer state.
func (s *Server) shardHandle(fp string, req InferRequest, provider ModelProvider, platform nocbt.Platform) (*shardHandle, error) {
	key := resultcache.Key("shard", fp, req.Model, fmt.Sprint(req.Seed), fmt.Sprint(req.Trained))
	s.mu.Lock()
	h, ok := s.batchers[key]
	if !ok {
		if len(s.batchers) >= s.cfg.MaxShards {
			s.mu.Unlock()
			return nil, errTooManyShards
		}
		h = &shardHandle{}
		s.batchers[key] = h
	}
	s.mu.Unlock()

	h.once.Do(func() {
		model, err := provider.Build(req.Seed, req.Trained)
		if err != nil {
			h.err = err
			return
		}
		build := func() (Engine, error) {
			return accel.New(platform, model.CloneForInference())
		}
		shard := s.pool.Shard(key, build)
		h.batcher = NewBatcher(s.ctx, shard, s.cfg.MaxBatch, s.metrics)
		h.model = model
	})
	if h.err != nil {
		// Drop the failed registration so a later request retries the
		// build instead of replaying a stale error forever.
		s.mu.Lock()
		if s.batchers[key] == h {
			delete(s.batchers, key)
		}
		s.mu.Unlock()
		return nil, h.err
	}
	return h, nil
}
