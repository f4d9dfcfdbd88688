// Package sched defines the common slot pipeline shared by every
// entanglement-establishment engine in the repository. Every scheme —
// the paper's SEE, REPS and E2E and the repo-grown baselines — runs the
// same four conceptual phases each time slot:
//
//	plan     — identify entanglement paths (EPI / LP rounding)
//	reserve  — reserve channels and memory for creation attempts (ESC /
//	           REPS provisioning)
//	physical — perform the stochastic segment-creation attempts
//	stitch   — assemble realized segments into connections and sample the
//	           quantum swaps (ECE / EPS)
//
// The package gives them one Engine interface, one canonical SlotResult,
// a Tracer hook with per-phase callbacks so callers can observe where
// throughput is lost (attempts reserved vs. segments created vs. swaps
// survived) without reaching into engine internals, and one slot skeleton
// (Runner, slot.go) that owns everything between the phases, plus the two
// stitch loops every engine's stitch phase is built from (StitchFixed over
// fixed paths, StitchRoutes by shortest path over the pool). Engines live
// in internal/core (SEE, SEE-Aware, E2E), internal/reps, internal/greedy,
// internal/contend (Contend, Contend-Aware, QPass) and internal/oracle;
// the factory that builds one by Algorithm is internal/engines.
package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"see/internal/qnet"
	"see/internal/state"
)

// Algorithm identifies an entanglement-establishment scheme.
type Algorithm int

// The schemes compared in the paper's evaluation (§IV).
const (
	// SEE integrates all-optical switching with quantum swapping (the
	// paper's contribution).
	SEE Algorithm = iota
	// REPS uses entanglement links only (Zhao & Qiao, INFOCOM 2021).
	REPS
	// E2E uses all-optical switching only: one segment per connection.
	E2E
	// Greedy is the non-LP baseline (NIST-style greedy provisioning): it
	// plans paths by repeated shortest-path on the segment graph and
	// reserves resources first-come-first-served, with no optimization.
	// It doubles as the degradation target when an LP solve blows its
	// slot budget (see internal/engines.NewResilient).
	Greedy
	// Contend is the contention-aware routing baseline in the Q-CAST
	// spirit (Shi & Qian, SIGCOMM 2020): per-pair candidate paths are
	// scored by an expected-throughput metric and selected best-first
	// with explicit contention accounting against residual channels and
	// memory, plus recovery-path fallback in the physical phase (see
	// internal/contend).
	Contend
	// QPass is the offline-routing contrast baseline in the Q-PASS spirit
	// (Shi & Qian, SIGCOMM 2020): candidate paths are fixed against the
	// fault-free topology, scored offline, and provisioned with per-hop
	// recovery attempts reserved up front; the plan never adapts to
	// residual capacities or to the fault forecast (see internal/contend's
	// offline mode).
	QPass
	// ContendAware is Contend with fault-forecast subtraction: announced
	// outages zero and announced brownouts shrink the residual channel and
	// memory capacities before candidate paths are scored (see
	// chaos.Forecast and DESIGN.md §5c).
	ContendAware
	// SEEAware is SEE with fault-forecast subtraction: forecast-dead links
	// are dropped from LP column pricing and announced capacity reductions
	// shrink the provisioning tables.
	SEEAware
	// Oracle is the capacity-bound oracle: it establishes nothing and
	// consumes no randomness, instead computing per-pair entanglement-
	// capacity upper bounds from the topology (min-cut over channel
	// capacities and expected link rates; see internal/oracle) so sweeps
	// can report every engine's throughput as a fraction of what the
	// network could theoretically deliver.
	Oracle
)

// Algorithms lists the paper's schemes in display order. Greedy and
// Contend are repo-grown baselines, selectable by name but not part of
// the paper's evaluation trio.
var Algorithms = []Algorithm{SEE, REPS, E2E}

// noTwin marks a scheme without a forecast-aware variant.
const noTwin Algorithm = -1

// algorithmTable is the one table of scheme names and fault-aware twins
// that String, ParseAlgorithm, FaultAware and FaultAwareVariant read,
// indexed by Algorithm. ParseAlgorithm accepts each name in any case.
var algorithmTable = [...]struct {
	name string
	// twin is the forecast-aware variant (the scheme itself for an aware
	// one); REPS, E2E, Greedy and QPass plan fault-blind by design.
	twin Algorithm
}{
	SEE:          {"SEE", SEEAware},
	REPS:         {"REPS", noTwin},
	E2E:          {"E2E", noTwin},
	Greedy:       {"Greedy", noTwin},
	Contend:      {"Contend", ContendAware},
	QPass:        {"QPass", noTwin},
	ContendAware: {"Contend-Aware", ContendAware},
	SEEAware:     {"SEE-Aware", SEEAware},
	Oracle:       {"Oracle", noTwin},
}

// known reports whether a has a row in the scheme table.
func (a Algorithm) known() bool { return a >= 0 && int(a) < len(algorithmTable) }

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if !a.known() {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithmTable[a].name
}

// ParseAlgorithm maps a case-insensitive scheme name (see, reps, e2e,
// greedy, contend, qpass, contend-aware, see-aware, oracle) to its
// Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for i, row := range algorithmTable {
		if strings.EqualFold(s, row.name) {
			return Algorithm(i), nil
		}
	}
	names := make([]string, len(algorithmTable))
	for i, row := range algorithmTable {
		names[i] = strings.ToLower(row.name)
	}
	last := len(names) - 1
	return 0, fmt.Errorf("sched: unknown algorithm %q (want %s or %s)", s, strings.Join(names[:last], ", "), names[last])
}

// FaultAware reports whether the scheme subtracts the announced fault
// forecast from its planning capacities.
func (a Algorithm) FaultAware() bool { return a.known() && algorithmTable[a].twin == a }

// FaultAwareVariant returns the forecast-aware twin of a scheme and true,
// or the scheme unchanged and false when no aware variant is registered.
func (a Algorithm) FaultAwareVariant() (Algorithm, bool) {
	if !a.known() || algorithmTable[a].twin == noTwin {
		return a, false
	}
	return algorithmTable[a].twin, true
}

// SlotResult is the canonical report of one simulated time slot, shared by
// every engine. Phases an engine does not run per slot leave their fields
// zero (REPS provisions once at construction, so it reports
// PlannedPaths = ProvisionedPaths = 0).
//
// A SlotResult belongs to the engine that returned it: the result, its
// PerPair, its connections and their segments are slot-scoped storage the
// engine reuses, valid until that engine's next RunSlot. A caller that
// keeps any of it across slots keeps a Clone.
type SlotResult struct {
	// LPObjective is the engine's fractional planning optimum (identical
	// across slots; also exposed as Engine.UpperBound).
	LPObjective float64
	// PlannedPaths is |T|: entanglement paths identified by the plan phase.
	PlannedPaths int
	// ProvisionedPaths is |D|: paths for which the reserve phase secured
	// full resources.
	ProvisionedPaths int
	// Attempts is the total number of segment-creation attempts reserved.
	Attempts int
	// SegmentsCreated is how many attempts succeeded in the physical phase
	// (for REPS these are entanglement links, i.e. single-hop segments).
	SegmentsCreated int
	// Assembled counts connection-assembly attempts in the stitch phase
	// (each consumes one realized segment per hop; swap failures make
	// Assembled > Established).
	Assembled int
	// Established is the throughput: connections whose swaps all succeeded.
	Established int
	// FloorRejected counts candidate assemblies the stitch phase refused
	// because their predicted end-to-end fidelity missed the request's
	// floor (zero when no fidelity floors are configured).
	FloorRejected int
	// PerPair is the established count per SD pair.
	PerPair []int
	// Connections lists the established connections.
	Connections []*qnet.Connection
}

// Clone returns a deep copy of the result that stays valid across slots:
// its own PerPair, connections and segments (segment.Candidate pointers
// are shared, as candidates outlive every slot). No connections come back
// as nil Connections, as a fresh engine reports them.
func (r *SlotResult) Clone() *SlotResult {
	out := *r
	out.PerPair = slices.Clone(r.PerPair)
	out.Connections = nil
	if len(r.Connections) > 0 {
		out.Connections = make([]*qnet.Connection, len(r.Connections))
		for i, c := range r.Connections {
			out.Connections[i] = c.Clone()
		}
	}
	return &out
}

// Engine runs time slots of one entanglement-establishment scheme over a
// fixed network and demand set. All engines are deterministic functions of
// the rng state passed to RunSlot.
type Engine interface {
	// Algorithm identifies the scheme.
	Algorithm() Algorithm
	// RunSlot simulates one time slot; the rng drives all stochastic
	// outcomes, so a fixed generator state reproduces the slot. The
	// result, its connections and their segments are valid until the
	// engine's next RunSlot (see SlotResult).
	RunSlot(rng *rand.Rand) (*SlotResult, error)
	// UpperBound returns the engine's LP planning value. For the default
	// swap-survival-weighted objective this bounds the expected
	// single-pass throughput; retry-based establishment (backed by
	// redundant segments) can deliver more, so it is a planning value,
	// not a bound on delivered throughput.
	UpperBound() float64
}

// Stateful is an engine with cross-slot state: the contract every
// registered engine (through the shared Runner) and the resilient wrapper
// in internal/engines implement, and the type engines.New returns.
//
// AttachBank and Bank carry realized-but-unconsumed entanglement segments
// across slot boundaries through a state.Bank (see internal/state and
// DESIGN.md §6): the engine withdraws surviving segments before planning
// each slot (reducing that slot's reservation demand) and deposits the
// slot's surplus at the end. Carry-over is strictly opt-in: with no bank
// attached (Bank() == nil) the engine is byte-identical to one that never
// heard of banks, the same contract zero fault plans honor. Attach a bank
// before the first RunSlot and never swap it mid-run.
//
// EngineState and RestoreEngineState checkpoint that state: an engine
// exports it between slots, and an identically configured fresh engine
// resumes from it with byte-identical remaining slots (the engine rng is
// checkpointed separately, as an xrand cursor, by the layer that owns
// it). Both are valid only at slot boundaries, never mid-RunSlot.
type Stateful interface {
	Engine
	// AttachBank installs the cross-slot segment bank (nil detaches).
	AttachBank(b *state.Bank)
	// Bank returns the attached bank, or nil when carry-over is disabled.
	Bank() *state.Bank
	// EngineState snapshots the engine's cross-slot state.
	EngineState() (*EngineState, error)
	// RestoreEngineState rewinds the engine to a snapshot taken from an
	// identically configured engine. Restoring nil resets to the
	// pre-first-slot state.
	RestoreEngineState(*EngineState) error
}
