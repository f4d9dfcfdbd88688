package sched

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"see/internal/metrics"
)

// Phase names one stage of the slot pipeline.
type Phase int

// The four pipeline phases, in execution order.
const (
	// PhasePlan covers entanglement-path identification and rounding
	// (EPI / Algorithm 1 for SEE).
	PhasePlan Phase = iota
	// PhaseReserve covers resource reservation for creation attempts
	// (ESC / Algorithm 2 for SEE, the provisioning plan for REPS).
	PhaseReserve
	// PhasePhysical covers the stochastic segment-creation attempts.
	PhasePhysical
	// PhaseStitch covers connection assembly and quantum swapping
	// (ECE / Algorithm 3 for SEE, EPS for REPS).
	PhaseStitch
)

// NumPhases is the number of pipeline phases.
const NumPhases = 4

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhasePlan:
		return "plan"
	case PhaseReserve:
		return "reserve"
	case PhasePhysical:
		return "physical"
	case PhaseStitch:
		return "stitch"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Incident classifies an out-of-band robustness event observed by the
// pipeline: injected faults, degradations and retries that are not part of
// the paper's ideal slot model.
type Incident int

// The incident kinds reported through Tracer.Incident.
const (
	// IncidentFault counts injected chaos events that bit: attempts or
	// routes blocked by node/link outages, segments lost to memory
	// decoherence (see internal/chaos).
	IncidentFault Incident = iota
	// IncidentDegraded counts slots the scheduler served with the greedy
	// fallback because the LP-based primary was unavailable (solve budget
	// exceeded or numerical failure).
	IncidentDegraded
	// IncidentRetry counts retries of a previously failed LP construction.
	IncidentRetry
	// IncidentBankWithdraw counts carried segments withdrawn from the
	// cross-slot state bank at slot start (see internal/state).
	IncidentBankWithdraw
	// IncidentBankDeposit counts surplus realized segments deposited into
	// the state bank at slot end.
	IncidentBankDeposit
	// IncidentBankDecohered counts banked segments lost at a slot boundary
	// to the age window or the stochastic decoherence hazard.
	IncidentBankDecohered
	// IncidentRecovery counts recovery-path creation attempts the
	// contention-aware engine fired after a primary segment attempt
	// failed in the physical phase (see internal/contend).
	IncidentRecovery
	// IncidentBrownout counts segment-creation attempts denied because a
	// browned-out link's reduced per-slot channel budget was exhausted
	// (see internal/chaos Brownout).
	IncidentBrownout
	// IncidentFlap counts (link, slot) down pairs injected by link
	// flapping (see internal/chaos Flap).
	IncidentFlap
	// IncidentForecastAvoid counts the announced network elements (nodes,
	// links) a fault-aware planner excluded or de-rated this slot because
	// the fault plan scheduled their outage in advance (see
	// chaos.Forecast); it fires every slot the forecast is non-empty.
	IncidentForecastAvoid
	// IncidentFloorReject counts candidate connection assemblies the
	// stitch phase rolled back because their predicted end-to-end fidelity
	// missed the request's floor (see qnet.FloorSpec); it never fires with
	// floors disabled.
	IncidentFloorReject
)

// NumIncidents is the number of incident kinds.
const NumIncidents = 11

// String implements fmt.Stringer.
func (i Incident) String() string {
	switch i {
	case IncidentFault:
		return "fault"
	case IncidentDegraded:
		return "degraded"
	case IncidentRetry:
		return "retry"
	case IncidentBankWithdraw:
		return "bank_withdraw"
	case IncidentBankDeposit:
		return "bank_deposit"
	case IncidentBankDecohered:
		return "bank_decohere"
	case IncidentRecovery:
		return "recovery"
	case IncidentBrownout:
		return "brownout"
	case IncidentFlap:
		return "flap"
	case IncidentForecastAvoid:
		return "forecast_avoid"
	case IncidentFloorReject:
		return "floor_reject"
	default:
		return fmt.Sprintf("Incident(%d)", int(i))
	}
}

// Tracer observes the slot pipeline. Engines invoke the callbacks on hot
// paths, so implementations must be cheap; implementations shared across
// goroutines (e.g. by the parallel experiment harness) must be safe for
// concurrent use. Tracers observe outcomes only — they must not influence
// the engine's randomness or decisions.
type Tracer interface {
	// SlotStart marks the beginning of a slot for the given scheme.
	SlotStart(alg Algorithm)
	// PathPlanned fires once per entanglement path identified in the plan
	// phase, with the path's SD-pair index and segment count.
	PathPlanned(commodity, segments int)
	// PathProvisioned fires once per path fully provisioned in the
	// reserve phase.
	PathProvisioned(commodity int)
	// AttemptReserved fires once per segment endpoint pair ⟨u,v⟩ that had
	// creation attempts reserved, with the attempt count. Summed over a
	// slot, counts reconcile with SlotResult.Attempts.
	AttemptReserved(u, v, count int)
	// AttemptResolved fires once per physical creation attempt; created
	// reports whether the attempt yielded a segment. The number of
	// created=true events per slot equals SlotResult.SegmentsCreated.
	AttemptResolved(u, v int, created bool)
	// SwapResolved fires once per sampled quantum swap at a junction.
	SwapResolved(junction int, ok bool)
	// ConnectionAssembled fires once per connection-assembly attempt in
	// the stitch phase; established reports whether every swap survived.
	ConnectionAssembled(commodity int, established bool)
	// PhaseDone fires after each pipeline phase the engine ran this slot,
	// with its wall-clock duration.
	PhaseDone(ph Phase, d time.Duration)
	// Incident reports n occurrences of a robustness event (injected
	// fault, degraded slot, retry). With faults disabled and no slot
	// budget it never fires.
	Incident(kind Incident, n int)
	// SlotEnd delivers the slot's final result.
	SlotEnd(res *SlotResult)
}

// NopTracer is a Tracer that ignores every event.
type NopTracer struct{}

var _ Tracer = NopTracer{}

func (NopTracer) SlotStart(Algorithm)            {}
func (NopTracer) PathPlanned(int, int)           {}
func (NopTracer) PathProvisioned(int)            {}
func (NopTracer) AttemptReserved(int, int, int)  {}
func (NopTracer) AttemptResolved(int, int, bool) {}
func (NopTracer) SwapResolved(int, bool)         {}
func (NopTracer) ConnectionAssembled(int, bool)  {}
func (NopTracer) PhaseDone(Phase, time.Duration) {}
func (NopTracer) Incident(Incident, int)         {}
func (NopTracer) SlotEnd(*SlotResult)            {}

// OrNop normalizes a possibly-nil tracer to a usable one.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return NopTracer{}
	}
	return t
}

// IsNop reports whether t observes nothing (nil or NopTracer). Engines use
// it to skip work that exists only to feed tracer callbacks — e.g. sorting
// the attempt plan for the per-reservation events — so bare runs do not pay
// for instrumentation they did not ask for.
func IsNop(t Tracer) bool {
	if t == nil {
		return true
	}
	_, ok := t.(NopTracer)
	return ok
}

// TracerCounts is a snapshot of a CountingTracer's event tallies.
type TracerCounts struct {
	// Slots counts completed slots (SlotEnd events).
	Slots int
	// PathsPlanned / PathsProvisioned count plan and reserve path events.
	PathsPlanned     int
	PathsProvisioned int
	// AttemptsReserved sums the reservation counts; AttemptsResolved
	// counts physical attempts, splitting into SegmentsCreated and
	// AttemptsFailed.
	AttemptsReserved int
	AttemptsResolved int
	SegmentsCreated  int
	AttemptsFailed   int
	// SwapsResolved counts sampled swaps; SwapsSucceeded the successes.
	SwapsResolved  int
	SwapsSucceeded int
	// ConnectionsAssembled counts assembly attempts;
	// ConnectionsEstablished those whose swaps all survived.
	ConnectionsAssembled   int
	ConnectionsEstablished int
	// Established accumulates SlotResult.Established over SlotEnd events.
	Established int
	// Incidents tallies robustness events by kind (indexed by Incident).
	Incidents [NumIncidents]int
}

// IncidentCount returns the tally for one incident kind (0 for out-of-range
// kinds).
func (c TracerCounts) IncidentCount(kind Incident) int {
	if kind < 0 || kind >= NumIncidents {
		return 0
	}
	return c.Incidents[kind]
}

// CountingTracer tallies pipeline events and per-phase latencies. The zero
// value is ready to use; all methods are safe for concurrent use, so one
// tracer may be shared across the experiment harness's trial workers.
type CountingTracer struct {
	mu     sync.Mutex
	counts TracerCounts
	// latency[ph] collects phase durations in seconds.
	latency [NumPhases][]float64
}

var _ Tracer = (*CountingTracer)(nil)

// NewCountingTracer returns an empty counting tracer.
func NewCountingTracer() *CountingTracer { return &CountingTracer{} }

// SlotStart implements Tracer.
func (t *CountingTracer) SlotStart(Algorithm) {}

// PathPlanned implements Tracer.
func (t *CountingTracer) PathPlanned(int, int) {
	t.mu.Lock()
	t.counts.PathsPlanned++
	t.mu.Unlock()
}

// PathProvisioned implements Tracer.
func (t *CountingTracer) PathProvisioned(int) {
	t.mu.Lock()
	t.counts.PathsProvisioned++
	t.mu.Unlock()
}

// AttemptReserved implements Tracer.
func (t *CountingTracer) AttemptReserved(_, _, count int) {
	t.mu.Lock()
	t.counts.AttemptsReserved += count
	t.mu.Unlock()
}

// AttemptResolved implements Tracer.
func (t *CountingTracer) AttemptResolved(_, _ int, created bool) {
	t.mu.Lock()
	t.counts.AttemptsResolved++
	if created {
		t.counts.SegmentsCreated++
	} else {
		t.counts.AttemptsFailed++
	}
	t.mu.Unlock()
}

// SwapResolved implements Tracer.
func (t *CountingTracer) SwapResolved(_ int, ok bool) {
	t.mu.Lock()
	t.counts.SwapsResolved++
	if ok {
		t.counts.SwapsSucceeded++
	}
	t.mu.Unlock()
}

// ConnectionAssembled implements Tracer.
func (t *CountingTracer) ConnectionAssembled(_ int, established bool) {
	t.mu.Lock()
	t.counts.ConnectionsAssembled++
	if established {
		t.counts.ConnectionsEstablished++
	}
	t.mu.Unlock()
}

// PhaseDone implements Tracer.
func (t *CountingTracer) PhaseDone(ph Phase, d time.Duration) {
	if ph < 0 || ph >= NumPhases {
		return
	}
	t.mu.Lock()
	t.latency[ph] = append(t.latency[ph], d.Seconds())
	t.mu.Unlock()
}

// Incident implements Tracer.
func (t *CountingTracer) Incident(kind Incident, n int) {
	if kind < 0 || kind >= NumIncidents {
		return
	}
	t.mu.Lock()
	t.counts.Incidents[kind] += n
	t.mu.Unlock()
}

// SlotEnd implements Tracer.
func (t *CountingTracer) SlotEnd(res *SlotResult) {
	t.mu.Lock()
	t.counts.Slots++
	if res != nil {
		t.counts.Established += res.Established
	}
	t.mu.Unlock()
}

// Counts returns a snapshot of the event tallies.
func (t *CountingTracer) Counts() TracerCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// PhaseLatency summarizes the recorded durations (in seconds) of one phase.
func (t *CountingTracer) PhaseLatency(ph Phase) metrics.Summary {
	if ph < 0 || ph >= NumPhases {
		return metrics.Summary{}
	}
	t.mu.Lock()
	samples := append([]float64(nil), t.latency[ph]...)
	t.mu.Unlock()
	return metrics.Summarize(samples)
}

// RestoreCounts overwrites the tallies with a checkpointed snapshot, so a
// resumed run's tracer continues from the interrupted run's offsets. Phase
// latencies are wall-clock observations, not replayable state; they reset.
func (t *CountingTracer) RestoreCounts(c TracerCounts) {
	t.mu.Lock()
	t.counts = c
	t.latency = [NumPhases][]float64{}
	t.mu.Unlock()
}

// String renders the throughput funnel: reserved → created → swapped →
// established, with per-phase mean latencies.
func (t *CountingTracer) String() string {
	c := t.Counts()
	var b strings.Builder
	fmt.Fprintf(&b, "slots=%d planned=%d provisioned=%d attempts=%d created=%d swaps=%d/%d assembled=%d established=%d",
		c.Slots, c.PathsPlanned, c.PathsProvisioned, c.AttemptsReserved,
		c.SegmentsCreated, c.SwapsSucceeded, c.SwapsResolved,
		c.ConnectionsAssembled, c.ConnectionsEstablished)
	for ph := Phase(0); ph < NumPhases; ph++ {
		if s := t.PhaseLatency(ph); s.N > 0 {
			fmt.Fprintf(&b, " %s=%.3gms", ph, s.Mean*1e3)
		}
	}
	for kind := Incident(0); kind < NumIncidents; kind++ {
		if n := c.Incidents[kind]; n > 0 {
			fmt.Fprintf(&b, " %s=%d", kind, n)
		}
	}
	return b.String()
}
