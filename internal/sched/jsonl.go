package sched

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// JSONLTracer streams pipeline events as JSON Lines (one object per event)
// to a writer, for offline analysis of large sweeps. Events carry an "ev"
// discriminator; the schema is flat so standard line-oriented tools (jq,
// awk) can slice it without a reader library.
//
// The tracer buffers writes and latches the first write error (inspect with
// Err); call Flush or Close before reading the output. All methods are safe
// for concurrent use, but events from concurrently traced engines
// interleave — writers that need attribution should run one tracer per
// engine or rely on the slot_start alg field.
type JSONLTracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

var _ Tracer = (*JSONLTracer)(nil)

// NewJSONLTracer wraps a writer in a streaming JSONL tracer. If w also
// implements io.Closer, Close closes it.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	t := &JSONLTracer{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// emit appends one line; it latches the first error and drops later events.
func (t *JSONLTracer) emit(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if _, err := fmt.Fprintf(t.w, format+"\n", args...); err != nil {
		t.err = err
	}
}

// SlotStart implements Tracer.
func (t *JSONLTracer) SlotStart(alg Algorithm) {
	t.emit(`{"ev":"slot_start","alg":%q}`, alg.String())
}

// PathPlanned implements Tracer.
func (t *JSONLTracer) PathPlanned(commodity, segments int) {
	t.emit(`{"ev":"path_planned","commodity":%d,"segments":%d}`, commodity, segments)
}

// PathProvisioned implements Tracer.
func (t *JSONLTracer) PathProvisioned(commodity int) {
	t.emit(`{"ev":"path_provisioned","commodity":%d}`, commodity)
}

// AttemptReserved implements Tracer.
func (t *JSONLTracer) AttemptReserved(u, v, count int) {
	t.emit(`{"ev":"attempt_reserved","u":%d,"v":%d,"count":%d}`, u, v, count)
}

// AttemptResolved implements Tracer.
func (t *JSONLTracer) AttemptResolved(u, v int, created bool) {
	t.emit(`{"ev":"attempt_resolved","u":%d,"v":%d,"created":%t}`, u, v, created)
}

// SwapResolved implements Tracer.
func (t *JSONLTracer) SwapResolved(junction int, ok bool) {
	t.emit(`{"ev":"swap","junction":%d,"ok":%t}`, junction, ok)
}

// ConnectionAssembled implements Tracer.
func (t *JSONLTracer) ConnectionAssembled(commodity int, established bool) {
	t.emit(`{"ev":"conn","commodity":%d,"established":%t}`, commodity, established)
}

// PhaseDone implements Tracer.
func (t *JSONLTracer) PhaseDone(ph Phase, d time.Duration) {
	t.emit(`{"ev":"phase","phase":%q,"us":%d}`, ph.String(), d.Microseconds())
}

// Incident implements Tracer.
func (t *JSONLTracer) Incident(kind Incident, n int) {
	t.emit(`{"ev":"incident","kind":%q,"n":%d}`, kind.String(), n)
}

// SlotEnd implements Tracer.
func (t *JSONLTracer) SlotEnd(res *SlotResult) {
	if res == nil {
		t.emit(`{"ev":"slot_end"}`)
		return
	}
	t.emit(`{"ev":"slot_end","planned":%d,"provisioned":%d,"attempts":%d,"created":%d,"assembled":%d,"established":%d}`,
		res.PlannedPaths, res.ProvisionedPaths, res.Attempts,
		res.SegmentsCreated, res.Assembled, res.Established)
}

// Flush writes buffered events through to the underlying writer.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.w.Flush()
	}
	return t.err
}

// Close flushes and, if the underlying writer is a Closer, closes it.
func (t *JSONLTracer) Close() error {
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// multiTracer fans every event out to several tracers in order.
type multiTracer []Tracer

var _ Tracer = multiTracer(nil)

// Multi combines tracers into one. Nil and no-op entries are dropped; the
// result is NopTracer for an effectively empty list and the tracer itself
// when only one remains, so engines' IsNop fast path still works.
func Multi(ts ...Tracer) Tracer {
	kept := make(multiTracer, 0, len(ts))
	for _, t := range ts {
		if !IsNop(t) {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return NopTracer{}
	case 1:
		return kept[0]
	default:
		return kept
	}
}

func (m multiTracer) SlotStart(alg Algorithm) {
	for _, t := range m {
		t.SlotStart(alg)
	}
}

func (m multiTracer) PathPlanned(commodity, segments int) {
	for _, t := range m {
		t.PathPlanned(commodity, segments)
	}
}

func (m multiTracer) PathProvisioned(commodity int) {
	for _, t := range m {
		t.PathProvisioned(commodity)
	}
}

func (m multiTracer) AttemptReserved(u, v, count int) {
	for _, t := range m {
		t.AttemptReserved(u, v, count)
	}
}

func (m multiTracer) AttemptResolved(u, v int, created bool) {
	for _, t := range m {
		t.AttemptResolved(u, v, created)
	}
}

func (m multiTracer) SwapResolved(junction int, ok bool) {
	for _, t := range m {
		t.SwapResolved(junction, ok)
	}
}

func (m multiTracer) ConnectionAssembled(commodity int, established bool) {
	for _, t := range m {
		t.ConnectionAssembled(commodity, established)
	}
}

func (m multiTracer) PhaseDone(ph Phase, d time.Duration) {
	for _, t := range m {
		t.PhaseDone(ph, d)
	}
}

func (m multiTracer) Incident(kind Incident, n int) {
	for _, t := range m {
		t.Incident(kind, n)
	}
}

func (m multiTracer) SlotEnd(res *SlotResult) {
	for _, t := range m {
		t.SlotEnd(res)
	}
}
