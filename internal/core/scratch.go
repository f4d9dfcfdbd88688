package core

import (
	"see/internal/flow"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
)

// slotScratch holds the per-slot reusable buffers of the RunSlot pipeline.
// One instance lives on the Engine and is recycled every slot, so the
// steady-state slot loop performs no ledger/map/graph re-allocation. The
// arena lifetime rule (DESIGN.md §9): scratch may only hold state that is
// dead by slot end — anything that can outlive the slot (realized
// segments, connections) is allocated fresh.
type slotScratch struct {
	// ESC: reservation ledger and attempt counts (Reset per slot), the
	// coverage tables and candidate cursors by segment edge ID, the edges
	// whose demand rose this slot (each once, marked in listed), the
	// backup-round keys, one path's rollback list, the path order and its
	// packed sort keys. Only listed edges hold nonzero table entries, so
	// resetTables zeroes those alone.
	ledger   *qnet.Ledger
	plan     qnet.PlanBuilder
	expected []float64
	demand   []int
	attempts []int
	cursor   []int
	listed   []bool
	demanded []int
	keys     []escKey
	added    []escAdded
	order    []uint64
	ordered  []PlannedPath

	// EPI's planned paths and ESC's provisioned subset, handed from phase
	// to phase within the slot.
	planned, provisioned []PlannedPath

	// ECE: the provisioned paths as sched.FixedPaths, and the flat
	// backing arrays of their hop keys and pair IDs.
	fixed   []sched.FixedPath
	hopKeys []segment.PairKey
	hopIDs  []int
}

// escKey is one demanded segment edge of a backup-provisioning round with
// its coverage expected/demand at round start, the round's sort key.
type escKey struct {
	edge  int
	cover float64
}

// escAdded is one attempt ESC reserved for the path in hand, with its
// segment edge, for rollback.
type escAdded struct {
	cand *segment.Candidate
	edge int
}

// resetTables readies ESC's per-edge tables for a set of n segment
// edges: sized to n and zero on every edge. A slot writes them only on
// the edges it lists, so it zeroes those and empties the list.
func (sc *slotScratch) resetTables(n int) {
	if len(sc.demand) != n {
		sc.expected, sc.demand, sc.attempts = make([]float64, n), make([]int, n), make([]int, n)
		sc.cursor, sc.listed = make([]int, n), make([]bool, n)
		sc.demanded = sc.demanded[:0]
		return
	}
	for _, id := range sc.demanded {
		sc.expected[id], sc.demand[id], sc.attempts[id] = 0, 0, 0
		sc.cursor[id], sc.listed[id] = 0, false
	}
	sc.demanded = sc.demanded[:0]
}

// resetCursors restarts every candidate cursor. Only listed edges are
// ever scanned, so only their cursors can have moved.
func (sc *slotScratch) resetCursors() {
	for _, id := range sc.demanded {
		sc.cursor[id] = 0
	}
}

// scratch returns the engine's slot scratch, creating it on first use.
func (e *Engine) scratch() *slotScratch {
	if e.slot == nil {
		e.slot = &slotScratch{
			ledger: qnet.NewLedgerWithCapacities(e.Net, e.opts.Flow.Channels, e.opts.Flow.Memory),
		}
	}
	return e.slot
}

// epiTables returns the per-commodity path lists and sampling weights of
// the fixed LP solution, derived once on first use: the solution never
// changes after construction, so re-deriving them every slot (the old
// behavior) was pure allocation churn.
func (e *Engine) epiTables() ([][]flow.PathFlow, [][]float64) {
	if e.epiPaths == nil {
		e.epiPaths, e.epiWeights = deriveEpiTables(len(e.Pairs), e.LP)
	}
	return e.epiPaths, e.epiWeights
}

// deriveEpiTables groups a solution's paths by commodity and extracts the
// flow sampling weights. The fixed construction LP caches the result (see
// epiTables); the carry-aware per-slot re-solve derives slot-local tables.
func deriveEpiTables(numPairs int, sol *flow.Solution) ([][]flow.PathFlow, [][]float64) {
	paths := make([][]flow.PathFlow, numPairs)
	for _, pf := range sol.Paths {
		paths[pf.Commodity] = append(paths[pf.Commodity], pf)
	}
	weights := make([][]float64, numPairs)
	for i, list := range paths {
		if len(list) == 0 {
			continue
		}
		w := make([]float64, len(list))
		for j, pf := range list {
			w[j] = pf.Flow
		}
		weights[i] = w
	}
	return paths, weights
}
