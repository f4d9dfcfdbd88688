package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"see": SEE, "SEE": SEE, "See": SEE,
		"reps": REPS, "REPS": REPS,
		"e2e": E2E, "E2E": E2E,
		"qpass": QPass, "contend-aware": ContendAware, "see-aware": SEEAware,
	}
	for in, want := range cases {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "qcast", "all"} {
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
	_, err := ParseAlgorithm("qcast")
	want := `sched: unknown algorithm "qcast" (want see, reps, e2e, greedy, contend, qpass, contend-aware, see-aware or oracle)`
	if err == nil || err.Error() != want {
		t.Errorf("ParseAlgorithm error = %v, want %s", err, want)
	}
	if got := Algorithm(42).String(); got != "Algorithm(42)" {
		t.Errorf("out-of-table String() = %q", got)
	}
	for _, a := range []Algorithm{SEE, REPS, E2E, Greedy, Contend, QPass, ContendAware, SEEAware} {
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Errorf("round trip %v -> %q -> %v, %v", a, a.String(), back, err)
		}
	}
}

func TestFaultAwareVariant(t *testing.T) {
	cases := []struct {
		in   Algorithm
		want Algorithm
		ok   bool
	}{
		{SEE, SEEAware, true},
		{Contend, ContendAware, true},
		{SEEAware, SEEAware, true},
		{ContendAware, ContendAware, true},
		{REPS, REPS, false},
		{E2E, E2E, false},
		{Greedy, Greedy, false},
		{QPass, QPass, false},
	}
	for _, c := range cases {
		got, ok := c.in.FaultAwareVariant()
		if got != c.want || ok != c.ok {
			t.Errorf("%v.FaultAwareVariant() = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	for _, a := range []Algorithm{SEEAware, ContendAware} {
		if !a.FaultAware() {
			t.Errorf("%v.FaultAware() = false", a)
		}
	}
	for _, a := range []Algorithm{SEE, REPS, E2E, Greedy, Contend, QPass} {
		if a.FaultAware() {
			t.Errorf("%v.FaultAware() = true", a)
		}
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhasePlan: "plan", PhaseReserve: "reserve",
		PhasePhysical: "physical", PhaseStitch: "stitch",
	}
	if len(want) != NumPhases {
		t.Fatalf("test covers %d phases, NumPhases = %d", len(want), NumPhases)
	}
	for ph, s := range want {
		if ph.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(ph), ph.String(), s)
		}
	}
}

// TestIncidentNames pins the incident table: every kind below NumIncidents
// has its own name, and the first kind past the end falls back to the
// numeric form. A renumbering that misses NumIncidents or the String
// switch fails here rather than only in the CLI goldens.
func TestIncidentNames(t *testing.T) {
	seen := make(map[string]Incident, NumIncidents)
	for k := Incident(0); k < NumIncidents; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Incident(") {
			t.Errorf("kind %d has no name (String() = %q)", int(k), name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(prev), int(k), name)
		}
		seen[name] = k
	}
	if got, want := Incident(NumIncidents).String(), fmt.Sprintf("Incident(%d)", NumIncidents); got != want {
		t.Errorf("Incident(NumIncidents).String() = %q, want %q", got, want)
	}
}

func TestCountingTracer(t *testing.T) {
	var tr CountingTracer // zero value must be usable
	tr.SlotStart(SEE)
	tr.PathPlanned(0, 2)
	tr.PathPlanned(1, 1)
	tr.PathProvisioned(0)
	tr.AttemptReserved(0, 1, 3)
	tr.AttemptResolved(0, 1, true)
	tr.AttemptResolved(0, 1, false)
	tr.SwapResolved(1, true)
	tr.ConnectionAssembled(0, true)
	tr.PhaseDone(PhasePlan, 2*time.Millisecond)
	tr.SlotEnd(&SlotResult{Established: 1})

	c := tr.Counts()
	if c.Slots != 1 || c.PathsPlanned != 2 || c.PathsProvisioned != 1 {
		t.Errorf("path counts wrong: %+v", c)
	}
	if c.AttemptsReserved != 3 || c.AttemptsResolved != 2 ||
		c.SegmentsCreated != 1 || c.AttemptsFailed != 1 {
		t.Errorf("attempt counts wrong: %+v", c)
	}
	if c.SwapsResolved != 1 || c.SwapsSucceeded != 1 ||
		c.ConnectionsAssembled != 1 || c.ConnectionsEstablished != 1 ||
		c.Established != 1 {
		t.Errorf("stitch counts wrong: %+v", c)
	}
	if s := tr.PhaseLatency(PhasePlan); s.N != 1 {
		t.Errorf("PhaseLatency(plan).N = %d, want 1", s.N)
	}
	if tr.String() == "" {
		t.Error("String() empty")
	}
	tr.Reset()
	if c := tr.Counts(); c != (TracerCounts{}) {
		t.Errorf("Reset left counts %+v", c)
	}
	if s := tr.PhaseLatency(PhasePlan); s.N != 0 {
		t.Error("Reset left latency samples")
	}
}

func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(NopTracer); !ok {
		t.Error("OrNop(nil) is not NopTracer")
	}
	ct := NewCountingTracer()
	if OrNop(ct) != Tracer(ct) {
		t.Error("OrNop must pass through non-nil tracers")
	}
}
