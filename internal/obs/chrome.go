package obs

import (
	"context"
	"encoding/json"
	"io"
)

// chromeEvent is one Chrome trace-event ("X" complete event). The format
// is the JSON array form documented by the Trace Event Format spec and
// accepted by Perfetto and chrome://tracing; ts and dur are microseconds
// (simulator spans export their cycle stamps as 1 cycle = 1 µs).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form: {"traceEvents": [...]}.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeSpans serializes spans as Chrome trace-event JSON.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	events := make([]chromeEvent, len(spans))
	for i, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			TS:   sp.Start,
			Dur:  sp.Dur,
			PID:  sp.PID,
			TID:  sp.TID,
		}
		if sp.N > 0 {
			ev.Args = make(map[string]any, sp.N)
			for _, a := range sp.Attrs[:sp.N] {
				if a.IsStr {
					ev.Args[a.Key] = a.Str
				} else {
					ev.Args[a.Key] = a.Num
				}
			}
		}
		events[i] = ev
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events})
}

// WriteChrome exports the tracer's committed spans as Chrome trace-event
// JSON. A nil tracer writes an empty (still valid) trace document.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Snapshot()
	if spans == nil {
		spans = []Span{}
	}
	return WriteChromeSpans(w, spans)
}

// ctxKey is the context key carrying a *Tracer.
type ctxKey struct{}

// NewContext returns ctx carrying the tracer, the plumbing experiments use
// to hand one tracer to every engine a run constructs (sweep.Measure, the
// one measuring path behind RunSweep and RunModelOnNoC, installs it on each
// engine it builds).
func NewContext(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tracer carried by ctx, or nil (a nil ctx is
// treated as empty).
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Tracer)
	return t
}
