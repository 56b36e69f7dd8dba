package accel

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestReusableLifecycle pins the pool-facing reuse hook: a fresh engine is
// reusable, stays reusable across successful inferences, and flips to
// non-reusable (with Aborted reporting the poisoning error) after a
// mid-run cancellation reaches the mesh.
func TestReusableLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng := mustNew(t, Mesh4x4MC2(paperFixed8), m)
	if !eng.Reusable() || eng.Aborted() != nil {
		t.Fatalf("fresh engine: Reusable=%v Aborted=%v", eng.Reusable(), eng.Aborted())
	}
	if _, err := eng.Infer(context.Background(), testInput(m, 2)); err != nil {
		t.Fatal(err)
	}
	if !eng.Reusable() || eng.Aborted() != nil {
		t.Fatalf("after clean run: Reusable=%v Aborted=%v", eng.Reusable(), eng.Aborted())
	}
	// Cancel on the first cycle-loop poll: traffic is on the mesh, so the
	// abort must poison the engine.
	ctx := &countdownCtx{Context: context.Background(), polls: 1}
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	if eng.Reusable() {
		t.Error("poisoned engine still reports Reusable")
	}
	if !errors.Is(eng.Aborted(), context.Canceled) {
		t.Errorf("Aborted = %v, want context.Canceled", eng.Aborted())
	}
}
