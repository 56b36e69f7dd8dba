// Package trace records packet traffic traces from the NoC simulator — one
// of the NOC-DNA platform outputs in the paper's Fig. 7 — and re-derives
// bit-transition statistics from them, giving an independent cross-check of
// the simulator's in-line BT recorders.
//
// This is the analysis-grade flit-level record (every crossing, exact
// payloads, CSV). For the human-facing timeline view — packet lifecycle and
// layer-phase spans rendered in a Chrome trace viewer — see the span
// tracer in nocbt/internal/obs and noc.Sim.SetSpanTracer; the two attach
// to the simulator independently.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"nocbt/internal/bitutil"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
)

// Event is one flit crossing one link.
type Event struct {
	Cycle    int64
	Link     string
	Class    noc.LinkClass
	PacketID uint64
	Seq      int
	Src, Dst int
	// Transitions is the wire toggles this crossing caused on its link,
	// recomputed by the Recorder from the payloads it has seen.
	Transitions int
}

// Recorder captures events from a noc.Sim via SetTrace. It keeps an
// independent per-link wire state so its transition counts do not rely on
// the simulator's own recorders.
type Recorder struct {
	events []Event
	wires  map[string]bitutil.Vec
	// payloads holds each event's raw payload pattern (one entry per
	// event) when payload recording is enabled — the input CodedBT needs
	// to replay the stream through a link coding. The vectors alias
	// regions of arena (one growing []uint64) rather than owning
	// individual backing stores, so a million-event trace costs a handful
	// of arena growths instead of one allocation per event.
	payloads []bitutil.Vec
	arena    []uint64
	keep     bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{wires: make(map[string]bitutil.Vec)}
}

// RecordPayloads makes the recorder keep a copy of every flit payload so
// the stream can be recounted under a link coding (CodedBT). Enable before
// installing the hook; payload copies cost one link-width vector per
// event.
func (r *Recorder) RecordPayloads() { r.keep = true }

// Hook returns the TraceFunc to install with Sim.SetTrace.
func (r *Recorder) Hook() noc.TraceFunc {
	return func(cycle int64, linkName string, class noc.LinkClass, f *flit.Flit) {
		wire, ok := r.wires[linkName]
		if !ok {
			wire = bitutil.NewVec(f.Payload.Width())
			r.wires[linkName] = wire
		}
		t := wire.Transitions(f.Payload)
		wire.CopyFrom(f.Payload)
		r.events = append(r.events, Event{
			Cycle:       cycle,
			Link:        linkName,
			Class:       class,
			PacketID:    f.PacketID,
			Seq:         f.Seq,
			Src:         f.Src,
			Dst:         f.Dst,
			Transitions: t,
		})
		if r.keep {
			// Copy the payload words into the arena; the pool may recycle
			// f.Payload's own backing store long before CodedBT replays the
			// stream. Arena growth never moves already-built vectors: they
			// keep aliasing the old backing array.
			start := len(r.arena)
			r.arena = append(r.arena, f.Payload.Words()...)
			r.payloads = append(r.payloads,
				bitutil.FromWords(f.Payload.Width(), r.arena[start:len(r.arena):len(r.arena)]))
		}
	}
}

// CodedBT replays the recorded flit stream through fresh per-link coding
// state and returns the total coded wire transitions — payload toggles
// under the coding plus extra-line flips — over the given link classes
// (all classes when none are given). This is the scalar cross-check for a
// coded simulation's in-line BT recorders: the trace carries raw payloads,
// so an independent recount must re-encode them exactly as each link did.
// Requires RecordPayloads to have been enabled before recording, except
// for a nil scheme: that is plain binary, whose recount is TotalBT.
func (r *Recorder) CodedBT(scheme flit.LinkCodingScheme, classes ...noc.LinkClass) (int64, error) {
	if scheme == nil {
		return r.TotalBT(classes...), nil
	}
	if len(r.payloads) != len(r.events) {
		return 0, fmt.Errorf("trace: %d payloads for %d events; enable RecordPayloads before recording",
			len(r.payloads), len(r.events))
	}
	want := make(map[noc.LinkClass]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	coders := make(map[string]flit.LinkCoding)
	bt := make([]int64, 1)
	var total int64
	for i, e := range r.events {
		coder, ok := coders[e.Link]
		if !ok {
			var err error
			if coder, err = scheme.NewCoding(r.payloads[i].Width(), 1, 1); err != nil {
				return 0, fmt.Errorf("trace: link %s: %w", e.Link, err)
			}
			coders[e.Link] = coder
		}
		// Every event must pass through its link's coder to keep the wire
		// state aligned with the simulation, even when the class is
		// filtered out of the total.
		bt[0] = 0
		coder.Count(0, r.payloads[i].Words(), bt)
		if len(classes) == 0 || want[e.Class] {
			total += bt[0]
		}
	}
	return total, nil
}

// Events returns the recorded events in delivery order.
func (r *Recorder) Events() []Event { return r.events }

// TotalBT sums transitions over the given link classes (all classes when
// none are given).
func (r *Recorder) TotalBT(classes ...noc.LinkClass) int64 {
	want := make(map[noc.LinkClass]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	var total int64
	for _, e := range r.events {
		if len(classes) == 0 || want[e.Class] {
			total += int64(e.Transitions)
		}
	}
	return total
}

// PerLinkBT aggregates transitions per link name.
func (r *Recorder) PerLinkBT() map[string]int64 {
	out := make(map[string]int64)
	for _, e := range r.events {
		out[e.Link] += int64(e.Transitions)
	}
	return out
}

// PacketHops counts how many link crossings each packet made.
func (r *Recorder) PacketHops() map[uint64]int {
	out := make(map[uint64]int)
	for _, e := range r.events {
		if e.Seq == 0 { // count per packet using head flits only
			out[e.PacketID]++
		}
	}
	return out
}

// csvHeader is the column layout of the trace file format.
var csvHeader = []string{"cycle", "link", "class", "packet", "seq", "src", "dst", "transitions"}

// WriteCSV streams the trace to w.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, e := range r.events {
		rec := []string{
			strconv.FormatInt(e.Cycle, 10),
			e.Link,
			strconv.Itoa(int(e.Class)),
			strconv.FormatUint(e.PacketID, 10),
			strconv.Itoa(e.Seq),
			strconv.Itoa(e.Src),
			strconv.Itoa(e.Dst),
			strconv.Itoa(e.Transitions),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(rd io.Reader) ([]Event, error) {
	cr := csv.NewReader(rd)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty file")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != "cycle" {
		return nil, fmt.Errorf("trace: unexpected header %v", rows[0])
	}
	events := make([]Event, 0, len(rows)-1)
	for i, row := range rows[1:] {
		var e Event
		var cls int
		fields := []interface{}{&e.Cycle, nil, &cls, &e.PacketID, &e.Seq, &e.Src, &e.Dst, &e.Transitions}
		for c, cell := range row {
			switch p := fields[c].(type) {
			case *int64:
				v, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: row %d col %d: %w", i+2, c, err)
				}
				*p = v
			case *uint64:
				v, err := strconv.ParseUint(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: row %d col %d: %w", i+2, c, err)
				}
				*p = v
			case *int:
				v, err := strconv.Atoi(cell)
				if err != nil {
					return nil, fmt.Errorf("trace: row %d col %d: %w", i+2, c, err)
				}
				*p = v
			case nil:
				e.Link = cell
			}
		}
		e.Class = noc.LinkClass(cls)
		events = append(events, e)
	}
	return events, nil
}
