package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nocbt/internal/tensor"
)

// batchSizes returns the size of every batch the stub engine executed.
func (e *stubEngine) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	sizes := make([]int, len(e.batches))
	for i, b := range e.batches {
		sizes[i] = len(b)
	}
	return sizes
}

// newTestBatcher starts a batcher over a one-replica shard of eng and
// returns it with the shard, so a test can hold the replica, and the
// metrics it records into.
func newTestBatcher(t *testing.T, maxBatch int, eng *stubEngine) (*Batcher, *Shard, *Metrics) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	m := NewMetrics(0)
	p := NewPool(1, m)
	shard := p.Shard("k", func() (Engine, error) { return eng, nil })
	return NewBatcher(ctx, shard, maxBatch, m), shard, m
}

// hold takes the shard's only replica until the returned func is called.
func hold(t *testing.T, shard *Shard) func() {
	t.Helper()
	_, release, err := shard.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return release
}

// waitQueued waits until the batcher's collector has accepted n requests.
func waitQueued(t *testing.T, m *Metrics, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.QueueDepth.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", m.QueueDepth.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// doAll submits n requests concurrently and returns each one's batch size
// once all have been answered.
func doAll(t *testing.T, b *Batcher, n int) []int {
	t.Helper()
	sizes := make([]int, n)
	var wg sync.WaitGroup
	for i := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, size, err := b.Do(context.Background(), in())
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			sizes[i] = size
		}()
	}
	wg.Wait()
	return sizes
}

func in() *tensor.Tensor { return tensor.New(1) }

// TestBatcherFlushesOnBatchSize: requests queued behind a busy replica
// form batches of MaxBatch, and the remainder runs next.
func TestBatcherFlushesOnBatchSize(t *testing.T) {
	eng := &stubEngine{reusable: true}
	b, shard, m := newTestBatcher(t, 3, eng)
	release := hold(t, shard)
	done := make(chan []int)
	go func() { done <- doAll(t, b, 4) }()
	waitQueued(t, m, 4)
	release()
	<-done
	if sizes := eng.batchSizes(); len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 1 {
		t.Errorf("engine saw batches %v, want [3 1]", sizes)
	}
}

// TestBatcherLoneRequestFlushesAtOnce: a request that finds an idle
// replica runs alone and at once; nothing waits for company.
func TestBatcherLoneRequestFlushesAtOnce(t *testing.T) {
	eng := &stubEngine{reusable: true}
	b, _, _ := newTestBatcher(t, 8, eng)
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, _, size, err := b.Do(context.Background(), in())
		if err != nil || size != 1 {
			t.Fatalf("Do = size %d, err %v; want a lone flush", size, err)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Errorf("lone request took %v", waited)
		}
	}
}

func TestBatcherNoCoalescingWhenMaxBatchOne(t *testing.T) {
	eng := &stubEngine{reusable: true}
	b, shard, m := newTestBatcher(t, 1, eng)
	release := hold(t, shard)
	done := make(chan []int)
	go func() { done <- doAll(t, b, 3) }()
	waitQueued(t, m, 3)
	release()
	for _, size := range <-done {
		if size != 1 {
			t.Errorf("Do = size %d; want singles", size)
		}
	}
	if sizes := eng.batchSizes(); len(sizes) != 3 {
		t.Errorf("engine saw %v, want three size-1 batches", sizes)
	}
}

// TestBatcherCoalescesWhileBusy: requests that arrive while the only
// replica is busy are drained into shared batches of at most MaxBatch.
func TestBatcherCoalescesWhileBusy(t *testing.T) {
	eng := &stubEngine{reusable: true}
	b, shard, m := newTestBatcher(t, 4, eng)
	release := hold(t, shard)
	done := make(chan []int)
	go func() { done <- doAll(t, b, 6) }()
	waitQueued(t, m, 6)
	release()
	for _, size := range <-done {
		if size < 1 || size > 4 {
			t.Errorf("Do = size %d, want 1..4", size)
		}
	}
	sizes := eng.batchSizes()
	total, coalesced := 0, false
	for _, s := range sizes {
		total += s
		coalesced = coalesced || s > 1
	}
	if total != 6 {
		t.Errorf("batches %v serve %d requests, want 6", sizes, total)
	}
	if !coalesced {
		t.Errorf("batches %v: requests queued behind a busy replica were not coalesced", sizes)
	}
}

// pairGate pairs up InferBatch calls: each call waits, up to 2 s, for a
// second one to enter the gate alongside it.
type pairGate struct {
	mu      sync.Mutex
	waiting chan struct{} // closed by the caller that completes a pair
}

func (g *pairGate) meet() bool {
	g.mu.Lock()
	if w := g.waiting; w != nil {
		g.waiting = nil
		g.mu.Unlock()
		close(w)
		return true
	}
	w := make(chan struct{})
	g.waiting = w
	g.mu.Unlock()
	select {
	case <-w:
		return true
	case <-time.After(2 * time.Second):
		return false
	}
}

// pairEngine is a stub engine whose InferBatch returns only once a second
// call, on any engine sharing its gate, is inside InferBatch too.
type pairEngine struct {
	stubEngine
	gate *pairGate
}

func (e *pairEngine) InferBatch(ctx context.Context, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if !e.gate.meet() {
		return nil, errors.New("no second InferBatch call ran alongside this one")
	}
	return e.stubEngine.InferBatch(ctx, inputs)
}

// TestBatcherUsesIdleReplicas: two requests arriving together on a
// two-replica shard run side by side, one per replica, not as one batch
// on one engine. Later rounds start as the gate answers both requesters
// at once, so both requests often reach the collector while both
// replicas are free.
func TestBatcherUsesIdleReplicas(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	gate := &pairGate{}
	shard := NewPool(2, nil).Shard("k", func() (Engine, error) {
		return &pairEngine{stubEngine: stubEngine{reusable: true}, gate: gate}, nil
	})
	b := NewBatcher(ctx, shard, 8, nil)
	for round := 0; round < 200 && !t.Failed(); round++ {
		for _, size := range doAll(t, b, 2) {
			if size != 1 {
				t.Errorf("round %d: Do = size %d, want 1 (each request on its own replica)", round, size)
			}
		}
	}
}

// TestBatcherColdBuildDoesNotStall: while one replica's engine build is
// blocked, a request the other, warm replica can serve still runs — the
// collector hands the cold slot to its flush and never builds itself.
func TestBatcherColdBuildDoesNotStall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	building, unblock := make(chan struct{}), make(chan struct{})
	builds := 0
	shard := NewPool(2, nil).Shard("k", func() (Engine, error) {
		builds++ // builds run one at a time below: the second starts after the first returned
		if builds == 2 {
			close(building)
			<-unblock
		}
		return &stubEngine{reusable: true}, nil
	})
	b := NewBatcher(ctx, shard, 8, nil)
	// Warm the first replica; the cold one is next in line.
	if _, _, _, err := b.Do(ctx, in()); err != nil {
		t.Fatal(err)
	}
	coldDone := make(chan error, 1)
	go func() {
		_, _, _, err := b.Do(ctx, in())
		coldDone <- err
	}()
	<-building
	warmCtx, warmCancel := context.WithTimeout(ctx, 2*time.Second)
	defer warmCancel()
	if _, _, _, err := b.Do(warmCtx, in()); err != nil {
		t.Errorf("request for the warm replica stalled behind a cold build: %v", err)
	}
	close(unblock)
	if err := <-coldDone; err != nil {
		t.Errorf("request on the cold replica: %v", err)
	}
}

// TestBatcherQueueDepthCountsRequests: the queue-depth gauge counts
// requests from acceptance until their flush releases the replica, not
// engine acquisitions.
func TestBatcherQueueDepthCountsRequests(t *testing.T) {
	eng := &stubEngine{reusable: true}
	b, shard, m := newTestBatcher(t, 2, eng)
	release := hold(t, shard)
	if got := m.QueueDepth.Load(); got != 0 {
		t.Fatalf("queue depth %d with only a direct Acquire, want 0", got)
	}
	done := make(chan []int)
	go func() { done <- doAll(t, b, 3) }()
	waitQueued(t, m, 3)
	release()
	<-done
	if got := m.QueueDepth.Load(); got != 0 {
		t.Errorf("queue depth %d after every request was answered, want 0", got)
	}
}

func TestBatcherDeliversEngineError(t *testing.T) {
	boom := errors.New("mesh exploded")
	eng := &stubEngine{reusable: true, inferErr: boom}
	b, _, _ := newTestBatcher(t, 2, eng)
	if _, _, _, err := b.Do(context.Background(), in()); !errors.Is(err, boom) {
		t.Errorf("Do = %v, want the engine error", err)
	}
}

// TestBatcherRejectsShortBatchStats is the regression for the silent
// zero-stat delivery: an engine whose LastBatchStats reports fewer
// PerInference entries than the batch has requests must fail the batch
// with a descriptive error — a requester must never see a fabricated
// latency of 0 for an inference the engine did not account for.
func TestBatcherRejectsShortBatchStats(t *testing.T) {
	eng := &stubEngine{reusable: true, statsShortBy: 1}
	b, _, _ := newTestBatcher(t, 2, eng)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stat, _, err := b.Do(context.Background(), in())
			if err == nil {
				t.Errorf("Do succeeded with stat %+v; want a stats-mismatch error", stat)
				return
			}
			if !strings.Contains(err.Error(), "per-inference stats") {
				t.Errorf("Do error %q does not describe the stats mismatch", err)
			}
		}()
	}
	wg.Wait()
}

func TestBatcherRequestContextCancel(t *testing.T) {
	eng := &stubEngine{reusable: true, inferDelay: 50 * time.Millisecond}
	b, _, _ := newTestBatcher(t, 1, eng)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, _, _, err := b.Do(ctx, in()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Do under expiring ctx = %v, want deadline", err)
	}
}

// TestBatcherShutdownFailsPending: a request pending behind a busy replica
// fails on shutdown instead of hanging.
func TestBatcherShutdownFailsPending(t *testing.T) {
	eng := &stubEngine{reusable: true}
	ctx, cancel := context.WithCancel(context.Background())
	m := NewMetrics(0)
	shard := NewPool(1, m).Shard("k", func() (Engine, error) { return eng, nil })
	b := NewBatcher(ctx, shard, 8, m)
	release := hold(t, shard)
	defer release()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := b.Do(context.Background(), in())
		done <- err
	}()
	waitQueued(t, m, 1)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending request succeeded after shutdown")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request stranded by shutdown")
	}
	if got := m.QueueDepth.Load(); got != 0 {
		t.Errorf("queue depth %d after the pending request failed, want 0", got)
	}
}

func TestBatcherMetrics(t *testing.T) {
	eng := &stubEngine{reusable: true}
	m := &Metrics{}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	p := NewPool(1, m)
	shard := p.Shard("k", func() (Engine, error) { return eng, nil })
	b := NewBatcher(ctx, shard, 2, m)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := b.Do(context.Background(), in()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := m.InferBatchedRequests.Load(); got != 4 {
		t.Errorf("InferBatchedRequests = %d, want 4", got)
	}
	if got := m.InferBatches.Load(); got < 2 || got > 4 {
		t.Errorf("InferBatches = %d, want between 2 and 4", got)
	}
}
