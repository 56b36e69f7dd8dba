package nocbt

import (
	"context"
	"io"

	"nocbt/internal/obs"
)

// Tracer is the unified span tracer (see internal/obs): a bounded
// in-memory ring of packet-lifecycle, per-layer inference-phase and serving
// spans, exportable as Chrome trace-event JSON for Perfetto.
type Tracer = obs.Tracer

// NewTracer builds a span tracer whose ring holds up to capacity spans
// (capacity <= 0 selects the default of about one million). Install it on a
// context with WithTracer and every engine the library constructs under
// that context records into it; a nil *Tracer is valid everywhere and
// records nothing at zero cost.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// WithTracer returns ctx carrying the tracer. RunExperiment, RunSweep and
// RunModelOnNoC install a context tracer on each engine they build, so one
// tracer collects spans across a whole sweep.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.NewContext(ctx, t)
}

// TracerFromContext returns the tracer carried by ctx, or nil.
func TracerFromContext(ctx context.Context) *Tracer {
	return obs.FromContext(ctx)
}

// WriteChromeTrace exports the tracer's recorded spans as Chrome
// trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Simulator spans use 1 cycle = 1 µs; a nil tracer
// writes an empty, still valid, trace document.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	return t.WriteChrome(w)
}
