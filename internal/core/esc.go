package core

import (
	"fmt"
	"math/bits"
	"slices"

	"see/internal/qnet"
	"see/internal/segment"
)

// createSegmentsPlanScratch implements Algorithm 2 (ESC): it orders the
// planned entanglement paths, then reserves the minimum quantum resources
// so that for every segment ⟨u,v⟩ the expected number of created segments
// Σ_k p^k_uv·x^k_uv covers the number of provisioned paths using it.
// High-probability physical realizations are reserved first; a path whose
// demand cannot be covered releases everything reserved on its behalf.
//
// It returns the attempt plan {x^k_uv} and the provisioned path set D. The
// ledger, the attempt plan, the coverage tables and the provisioned list
// are recycled from the slot scratch: the returned plan and paths alias
// it, so they are only valid until the next slot (RunSlot consumes them
// in-slot).
func (e *Engine) createSegmentsPlanScratch(planned []PlannedPath, sc *slotScratch) (qnet.AttemptPlan, []PlannedPath, error) {
	ordered, err := sc.orderPaths(planned)
	if err != nil {
		return nil, nil, err
	}

	// The ledger reserves against the planning capacities (fault-aware
	// planning shrinks them to the forecast; nil overrides keep the
	// network tables). Per segment edge ID e (every hop carries its own):
	// expected[e] = Σ_k p^k·x^k currently reserved for the pair;
	// demand[e] = paths in D using the pair; attempts[e] = Σ_k x^k
	// currently reserved for the pair.
	ledger := sc.ledger
	ledger.Reset()
	plan := &sc.plan
	plan.Reset()
	sc.resetTables(len(e.Set.EdgePairs))
	expected, demand, attempts := sc.expected, sc.demand, sc.attempts

	provisioned := sc.provisioned[:0]
	for _, p := range ordered {
		// Attempts added on behalf of this path, for rollback, and how
		// many hops had their demand counted before a failure.
		added := sc.added[:0]
		counted := 0
		ok := true
		for _, hop := range p.Hops {
			id := hop.Edge
			if !sc.listed[id] {
				sc.listed[id] = true
				sc.demanded = append(sc.demanded, id)
			}
			demand[id]++
			counted++
			for expected[id] < float64(demand[id]) {
				cand := sc.reserveBest(e.Set.ByEdge[id], id, ledger)
				if cand == nil {
					// Out of resources for redundancy. In strict mode
					// (Algorithm 2 verbatim) the path is released. By
					// default we keep it as long as each demanded segment
					// has at least one dedicated attempt — without this,
					// a 1-channel network could never provision anything
					// (see the Fig. 2 fixture) even though creating
					// segments without redundancy is clearly preferable
					// to idling.
					if e.opts.StrictProvisioning || attempts[id] < demand[id] {
						ok = false
					}
					break
				}
				plan.Add(cand, 1)
				expected[id] += cand.Prob
				attempts[id]++
				added = append(added, escAdded{cand: cand, edge: id})
			}
			if !ok {
				break
			}
		}
		sc.added = added
		if ok {
			provisioned = append(provisioned, p)
			continue
		}
		// Rollback: release the attempts added for p and drop its demand.
		// A release can make a skipped candidate reservable again, so
		// every cursor restarts.
		for _, a := range added {
			if err := ledger.Release(a.cand, 1); err != nil {
				return nil, nil, err
			}
			plan.Add(a.cand, -1)
			expected[a.edge] -= a.cand.Prob
			attempts[a.edge]--
		}
		if len(added) > 0 {
			sc.resetCursors()
		}
		for _, hop := range p.Hops[:counted] {
			demand[hop.Edge]--
		}
	}
	sc.provisioned = provisioned

	// Backup provisioning (§II-F: SEE "provisions redundant entanglement
	// ... some of these entanglement segments will be used as backups"):
	// saturate leftover channels and memory with extra attempts on the
	// segments the provisioned paths demand, topping up the least-covered
	// segments first so availability is equalized.
	if len(provisioned) > 0 {
		keys := sc.keys[:0]
		for _, id := range sc.demanded {
			if demand[id] > 0 {
				keys = append(keys, escKey{edge: id})
			}
		}
		// Each key's coverage is computed once per round. Ties break on
		// the unique edge ID, so the order is strict and total: any
		// correct sort yields the same permutation. The first round sorts
		// the keys from listing order; every later round re-orders the
		// previous round's order in place by one insertion pass, where
		// only the keys that reserved remain and each one's coverage has
		// risen.
		for round := 0; len(keys) > 0; round++ {
			for i := range keys {
				keys[i].cover = expected[keys[i].edge] / float64(demand[keys[i].edge])
			}
			if round == 0 {
				slices.SortFunc(keys, compareEscKeys)
			} else {
				insertionSortEscKeys(keys)
			}
			keys = e.backupRound(keys, sc, ledger, plan)
		}
		sc.keys = keys
	}

	if err := ledger.Validate(); err != nil {
		return nil, nil, err
	}
	return plan.Plan(), provisioned, nil
}

// compareEscKeys orders backup-provisioning keys by coverage, least
// covered first, then by edge ID, which orders endpoint pairs (Set.EdgeOf
// numbers them in sorted order). Coverages are never NaN (demand is
// positive), so the order is strict and total.
func compareEscKeys(a, b escKey) int {
	if a.cover != b.cover {
		if a.cover < b.cover {
			return -1
		}
		return 1
	}
	// Edge IDs index Set.EdgePairs, so the difference cannot overflow.
	return a.edge - b.edge
}

// insertionSortEscKeys sorts keys into compareEscKeys order in place.
// Between backup rounds the keys are already close to that order (each
// rises by one attempt's probability over its demand), so the pass moves
// few of them.
func insertionSortEscKeys(keys []escKey) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0 && compareEscKeys(k, keys[j-1]) < 0; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// backupRound performs one backup-provisioning pass over the sorted edge
// keys: for each pair, reserve one attempt over its best reservable
// candidate (if any). It returns the keys that reserved, in order; the
// backup loop ends with a round that keeps none. A key without a reservable candidate never gets
// one later in the loop, whose ledger only reserves (CanReserve only turns
// false), so dropping it changes no reservation; the kept keys' (cover,
// edge) order is strict, so sorting them alone orders them as sorting all
// keys would.
func (e *Engine) backupRound(keys []escKey, sc *slotScratch, ledger *qnet.Ledger, plan *qnet.PlanBuilder) []escKey {
	kept := keys[:0]
	for _, k := range keys {
		cand := sc.reserveBest(e.Set.ByEdge[k.edge], k.edge, ledger)
		if cand == nil {
			continue
		}
		plan.Add(cand, 1)
		sc.expected[k.edge] += cand.Prob
		sc.attempts[k.edge]++
		kept = append(kept, k)
	}
	return kept
}

// reserveBest reserves one attempt over the highest-probability candidate
// of cands, the segment edge id's realizations (Set.ByEdge[id]), that the
// ledger can still accommodate, and returns it, or nil if none fits. It
// starts at the edge's cursor, which every candidate before it has failed:
// CanReserve turns true again only after a Release, and ESC restarts
// every cursor after one (resetCursors), so the scan picks what a scan
// from the first candidate would.
func (sc *slotScratch) reserveBest(cands []*segment.Candidate, id int, ledger *qnet.Ledger) *segment.Candidate {
	k := sc.cursor[id]
	for ; k < len(cands); k++ {
		if ledger.TryReserve(cands[k]) {
			break
		}
	}
	sc.cursor[id] = k
	if k == len(cands) {
		return nil
	}
	return cands[k]
}

// orderPaths implements ESC's ordering: increasing path length (segment
// count, then physical hop count), with round-robin across SD pairs inside
// each equal-length class to preserve fairness: first one path of each SD
// pair in commodity order, then the second of each, and so on, each pair's
// paths in planned order. It sorts packed integer keys twice over the
// scratch's buffer: (class, commodity, planned index) to number each path
// within its pair and class, then (class, that number, commodity, planned
// index). Each field is as wide as its largest value needs, and the
// planned index makes both keys unique, so the result is the stable
// round-robin order. It fails if the fields do not fit 64 bits. The
// returned slice is the scratch's, valid until the next call.
func (sc *slotScratch) orderPaths(planned []PlannedPath) ([]PlannedPath, error) {
	var segs, phys, comm int
	for _, p := range planned {
		segs, phys, comm = max(segs, len(p.Hops)), max(phys, p.PhysHops), max(comm, p.Commodity)
	}
	wp, wc, wi := bits.Len(uint(phys)), bits.Len(uint(comm)), bits.Len(uint(len(planned)))
	if bits.Len(uint(segs))+wp+wc+2*wi > 64 {
		return nil, fmt.Errorf("core: %d planned paths (%d segments, %d hops, commodity %d) overflow the path-order key",
			len(planned), segs, phys, comm)
	}
	keys := sc.order[:0]
	for i, p := range planned {
		class := uint64(len(p.Hops))<<wp | uint64(p.PhysHops)
		keys = append(keys, (class<<wc|uint64(p.Commodity))<<wi|uint64(i))
	}
	slices.Sort(keys)
	// Paths of one pair and class share every bit above the index; number
	// them in index order.
	idxMask, commMask := uint64(1)<<wi-1, uint64(1)<<wc-1
	var group, rank uint64
	for k, key := range keys {
		if g := key >> wi; k == 0 || g != group {
			group, rank = g, 0
		} else {
			rank++
		}
		class, commodity := group>>wc, group&commMask
		keys[k] = ((class<<wi|rank)<<wc|commodity)<<wi | key&idxMask
	}
	slices.Sort(keys)
	sc.order = keys
	out := sc.ordered[:0]
	for _, key := range keys {
		out = append(out, planned[key&idxMask])
	}
	sc.ordered = out
	return out, nil
}
