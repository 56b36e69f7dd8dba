package accel

import (
	"context"
	"errors"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// TestInferContextCancelled proves a cancelled context aborts the
// simulation with ctx.Err() instead of running the inference to
// completion, on both the serial and batch paths.
func TestInferContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("Infer under cancelled context = %v, want context.Canceled", err)
	}
	if _, err := eng.InferBatch(ctx, []*tensor.Tensor{testInput(m, 2)}); !errors.Is(err, context.Canceled) {
		t.Errorf("InferBatch under cancelled context = %v, want context.Canceled", err)
	}
	in := testInput(m, 2)
	if _, err := eng.InferBatch(ctx, []*tensor.Tensor{in, in}); !errors.Is(err, context.Canceled) {
		t.Errorf("InferBatch of two under cancelled context = %v, want context.Canceled", err)
	}
}

// TestInferContextDeadline proves an already-expired deadline surfaces as
// context.DeadlineExceeded.
func TestInferContextDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Infer past deadline = %v, want context.DeadlineExceeded", err)
	}
}

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of polls — a deterministic stand-in for a mid-simulation cancel,
// independent of wall-clock timing.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestInferCancelledMidRunPoisonsEngine pins the abort contract: a run
// cancelled after traffic reached the mesh leaves flits behind, so the
// engine must refuse later inferences with a descriptive error instead of
// tripping over the stale packets.
func TestInferCancelledMidRunPoisonsEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng, err := New(Mesh4x4MC2(paperFixed8), m)
	if err != nil {
		t.Fatal(err)
	}
	// Survive the run() entry poll, then cancel on the first cycle-loop
	// poll: the scheduler is 1024 cycles into the first conv layer with
	// task packets in flight.
	ctx := &countdownCtx{Context: context.Background(), polls: 1}
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	_, err = eng.Infer(context.Background(), testInput(m, 2))
	if err == nil || !strings.Contains(err.Error(), "unusable after an aborted run") {
		t.Fatalf("poisoned engine accepted another inference: %v", err)
	}
	if _, err := eng.InferBatch(context.Background(), []*tensor.Tensor{testInput(m, 2)}); err == nil ||
		!strings.Contains(err.Error(), "unusable") {
		t.Errorf("poisoned engine accepted a batch: %v", err)
	}
}

// TestInferPreRunCancelDoesNotPoison: a context cancelled before any
// dispatch leaves the engine untouched and reusable.
func TestInferPreRunCancelDoesNotPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Infer = %v", err)
	}
	if _, err := eng.Infer(context.Background(), testInput(m, 2)); err != nil {
		t.Errorf("engine unusable after a pre-run cancel: %v", err)
	}
}

// TestInferNilContextDefaultsToBackground keeps nil-context callers
// working instead of panicking.
func TestInferNilContextDefaultsToBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	//nolint:staticcheck // passing nil deliberately to pin the fallback
	if _, err := eng.Infer(nil, testInput(m, 2)); err != nil {
		t.Errorf("Infer with nil context = %v, want success", err)
	}
}

// shortColumn arms the short-column ordering: while set, it drops the last
// weight of every one-pair segment, an ordering bug FlitizeInto must
// catch. Unarmed it is O0, so the package's all-strategies tests pass it.
var shortColumn atomic.Bool

const shortColumnID flit.Ordering = 250

var registerShortColumn = sync.OnceValue(func() error {
	return flit.RegisterOrdering(flit.NewOrderingStrategy("short-column", shortColumnID, false, false,
		func(dst *flit.Ordered, w, in []bitutil.Word, _ int) {
			dst.Weights = append(dst.Weights[:0], w...)
			dst.Inputs = append(dst.Inputs[:0], in...)
			dst.PartnerIndex = nil
			if shortColumn.Load() && len(w) == 1 {
				dst.Weights = dst.Weights[:0]
			}
		}))
})

// waitGoroutines fails unless the goroutine count falls back to base: an
// engine call starts no goroutine, so none may outlive it.
func waitGoroutines(t *testing.T, base int, when string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the engine ran", when, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInferExitPathsLeaveNoGoroutine: every Infer leaves no goroutine
// behind when it returns — after success, after a mid-layer cancellation
// (which poisons the engine) and after an encode error (which names the
// layer, task and segment).
func TestInferExitPathsLeaveNoGoroutine(t *testing.T) {
	if err := registerShortColumn(); err != nil {
		t.Fatal(err)
	}
	m := microNet(rand.New(rand.NewSource(1)))
	base := runtime.NumGoroutine()

	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if _, err := eng.Infer(context.Background(), testInput(m, 2)); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "after a successful Infer")

	ctx := &countdownCtx{Context: context.Background(), polls: 1}
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	waitGoroutines(t, base, "after a cancelled Infer")
	if eng.Reusable() || !errors.Is(eng.Aborted(), context.Canceled) {
		t.Errorf("after a mid-run cancel: Reusable=%v Aborted=%v", eng.Reusable(), eng.Aborted())
	}

	// Five-pair segments split the first conv layer's six-pair tasks into
	// five pairs and one; MC 1 sends task 1's one-pair tail first.
	cfg := Mesh4x4MC2(paperFixed8)
	cfg.Ordering = shortColumnID
	cfg.MaxSegmentPairs = 5
	eng = mustNew(t, cfg, m)
	shortColumn.Store(true)
	defer shortColumn.Store(false)
	_, err := eng.Infer(context.Background(), testInput(m, 2))
	want := regexp.MustCompile(`^accel: layer conv3x3\(1->4,s1,p1\): flitize task 1 seg 1: flit: ordering short-column returned 0 weights and 1 inputs for an 1-pair task$`)
	if err == nil || !want.MatchString(err.Error()) {
		t.Fatalf("encode error = %v, want a match for %s", err, want)
	}
	waitGoroutines(t, base, "after an encode error")
}
