package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// driveAll fires every tracer event once.
func driveAll(t Tracer) {
	t.SlotStart(SEE)
	t.PathPlanned(1, 3)
	t.PathProvisioned(1)
	t.AttemptReserved(2, 5, 4)
	t.AttemptResolved(2, 5, true)
	t.AttemptResolved(2, 5, false)
	t.SwapResolved(3, true)
	t.ConnectionAssembled(1, true)
	t.PhaseDone(PhasePlan, 1500*time.Microsecond)
	t.Incident(IncidentFault, 2)
	t.SlotEnd(&SlotResult{PlannedPaths: 1, ProvisionedPaths: 1, Attempts: 4,
		SegmentsCreated: 1, Assembled: 1, Established: 1, PerPair: []int{1}})
}

func TestJSONLTracerEmitsValidLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	driveAll(tr)
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 11 {
		t.Fatalf("got %d lines, want 11:\n%s", len(lines), buf.String())
	}
	evs := make([]string, 0, len(lines))
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		ev, ok := obj["ev"].(string)
		if !ok {
			t.Fatalf("line %d missing ev discriminator: %s", i, line)
		}
		evs = append(evs, ev)
	}
	want := []string{"slot_start", "path_planned", "path_provisioned",
		"attempt_reserved", "attempt_resolved", "attempt_resolved",
		"swap", "conn", "phase", "incident", "slot_end"}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event order %v, want %v", evs, want)
		}
	}
	// Spot-check one payload.
	var slotEnd map[string]any
	if err := json.Unmarshal([]byte(lines[10]), &slotEnd); err != nil {
		t.Fatal(err)
	}
	if slotEnd["established"].(float64) != 1 || slotEnd["attempts"].(float64) != 4 {
		t.Errorf("slot_end payload wrong: %v", slotEnd)
	}
}

// failingWriter always errors to exercise error latching.
type failingWriter struct{}

func (w *failingWriter) Write(p []byte) (int, error) {
	return 0, errors.New("disk full")
}

func TestJSONLTracerLatchesFirstError(t *testing.T) {
	tr := NewJSONLTracer(&failingWriter{})
	driveAll(tr)
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush did not surface write error")
	}
	if tr.err == nil {
		t.Fatal("no error latched after failed write")
	}
	// Later events must be dropped silently, not panic.
	tr.SlotStart(REPS)
}

func TestMulti(t *testing.T) {
	if _, ok := Multi().(NopTracer); !ok {
		t.Error("Multi() is not NopTracer")
	}
	if _, ok := Multi(nil, NopTracer{}).(NopTracer); !ok {
		t.Error("Multi(nil, nop) is not NopTracer")
	}
	ct := NewCountingTracer()
	if got := Multi(nil, ct); got != Tracer(ct) {
		t.Error("Multi with one live tracer should return it unchanged")
	}
	// Fan-out: both sinks see every event.
	var buf bytes.Buffer
	jt := NewJSONLTracer(&buf)
	m := Multi(ct, jt)
	driveAll(m)
	if err := jt.Flush(); err != nil {
		t.Fatal(err)
	}
	if c := ct.Counts(); c.Slots != 1 || c.AttemptsReserved != 4 || c.IncidentCount(IncidentFault) != 2 {
		t.Errorf("counting sink missed events: %+v", c)
	}
	if n := strings.Count(buf.String(), "\n"); n != 11 {
		t.Errorf("jsonl sink got %d lines, want 11", n)
	}
}
