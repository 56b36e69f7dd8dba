package serve

import (
	"context"
	"fmt"
	"sync"

	"nocbt/internal/accel"
	"nocbt/internal/tensor"
)

// Engine is the pool's view of a warm accelerator engine — the subset of
// *accel.Engine the serving path calls, as an interface so pool and
// batcher tests can substitute instrumented fakes.
type Engine interface {
	// InferBatch runs every input through the model; outputs are
	// bit-identical to serial Infer calls (the accel contract).
	InferBatch(ctx context.Context, inputs []*tensor.Tensor) ([]*tensor.Tensor, error)
	// LastBatchStats reports the most recent batch's timing.
	LastBatchStats() accel.BatchStats
	// Reusable reports whether the engine survived its last run; a false
	// return retires the engine from the pool.
	Reusable() bool
}

// BuildFunc constructs one warm engine for a shard. It is called lazily —
// on the first use of each replica slot and again whenever a retired
// engine needs a replacement — and may be slow (model training, platform
// validation); the pool never holds a lock across it.
type BuildFunc func() (Engine, error)

// Pool is a sharded pool of warm engines. Each shard corresponds to one
// (platform, model, seed) key and owns a fixed number of replica slots;
// acquiring blocks until a replica is free, so a shard's engines bound its
// concurrency. Engines whose last run aborted (Engine.Reusable() == false)
// are retired on release and rebuilt on the next acquire.
type Pool struct {
	mu       sync.Mutex
	replicas int
	shards   map[string]*Shard
	metrics  *Metrics
}

// NewPool returns an empty pool with the given replica count per shard
// (minimum 1). metrics may be nil.
func NewPool(replicas int, metrics *Metrics) *Pool {
	if replicas < 1 {
		replicas = 1
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	return &Pool{replicas: replicas, shards: make(map[string]*Shard), metrics: metrics}
}

// Shard returns the shard registered under key, creating it with build on
// first use. Later calls ignore build: the first registration wins, which
// is safe because keys are content addresses of the full engine
// configuration.
func (p *Pool) Shard(key string, build BuildFunc) *Shard {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.shards[key]
	if !ok {
		s = &Shard{key: key, build: build, slots: make(chan *slot, p.replicas), metrics: p.metrics}
		for i := 0; i < p.replicas; i++ {
			s.slots <- &slot{} // empty slot: built on first acquire
		}
		p.shards[key] = s
		p.metrics.PoolShards.Set(int64(len(p.shards)))
	}
	return s
}

// Shards returns the number of registered shards.
func (p *Pool) Shards() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.shards)
}

// Shard is one (platform, model, seed) slice of the pool.
type Shard struct {
	key     string
	build   BuildFunc
	slots   chan *slot
	metrics *Metrics
}

// slot is one replica position. A nil eng means the slot is empty — never
// built, or drained by a retirement — and the next acquire rebuilds it.
type slot struct {
	eng Engine
}

// Key returns the shard's registration key.
func (s *Shard) Key() string { return s.key }

// Acquire returns a warm engine and the release func that must be called
// (exactly once) when the caller is done with it. It blocks until a
// replica slot frees up or ctx is done, then warms the slot. Release
// inspects Engine.Reusable(): an engine poisoned by an aborted run is
// retired and its slot rebuilt on the next acquire, so one bad run costs
// one rebuild, never a stuck replica.
func (s *Shard) Acquire(ctx context.Context) (Engine, func(), error) {
	var sl *slot
	select {
	case sl = <-s.slots:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	eng, err := s.warm(sl)
	if err != nil {
		return nil, nil, err
	}
	var once sync.Once
	return eng, func() { once.Do(func() { s.release(sl) }) }, nil
}

// free is the shard's free list: receiving from it takes a replica slot,
// which the holder passes to warm and, once warm succeeds, hands back
// through release.
func (s *Shard) free() <-chan *slot { return s.slots }

// idle reports whether a replica slot is free at this moment.
func (s *Shard) idle() bool { return len(s.slots) > 0 }

// warm returns the held slot's engine, building it first if the slot is
// cold. A failed build hands the slot back at once, so its next holder
// retries the build.
func (s *Shard) warm(sl *slot) (Engine, error) {
	if sl.eng != nil {
		return sl.eng, nil
	}
	eng, err := s.buildTraced()
	if err != nil {
		s.slots <- sl
		return nil, fmt.Errorf("serve: building engine for shard %s: %w", s.key, err)
	}
	if eng == nil {
		s.slots <- sl
		return nil, fmt.Errorf("serve: shard %s builder returned a nil engine", s.key)
	}
	s.metrics.EngineBuilds.Add(1)
	sl.eng = eng
	return eng, nil
}

// release hands a warmed slot back to the shard, retiring its engine if
// the last run poisoned it (Engine.Reusable() == false).
func (s *Shard) release(sl *slot) {
	if !sl.eng.Reusable() {
		s.metrics.EngineRetirements.Add(1)
		sl.eng = nil
	}
	s.slots <- sl
}

// buildTraced wraps the shard's build func in an engine.build span — cold
// shard construction (model training included) is the serving tier's
// biggest latency cliff, so it gets its own track in /debug/trace.
func (s *Shard) buildTraced() (Engine, error) {
	t := s.metrics.Spans
	sp := t.Begin("engine.build", "serve", servePID, t.NextTID(), t.Ticks()).
		SetAttr("shard", s.key)
	eng, err := s.build()
	t.End(sp, t.Ticks())
	return eng, err
}
