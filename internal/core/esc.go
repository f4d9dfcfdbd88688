package core

import (
	"cmp"
	"slices"
	"sort"

	"see/internal/par"
	"see/internal/qnet"
	"see/internal/segment"
)

// escParallelThreshold is the minimum number of active segment pairs
// before a backup-provisioning round fans its reservation scans out to
// the parallel precompute; below it the coordination cost outweighs the
// scan work.
const escParallelThreshold = 16

// createSegmentsPlanScratch implements Algorithm 2 (ESC): it orders the
// planned entanglement paths, then reserves the minimum quantum resources
// so that for every segment ⟨u,v⟩ the expected number of created segments
// Σ_k p^k_uv·x^k_uv covers the number of provisioned paths using it.
// High-probability physical realizations are reserved first; a path whose
// demand cannot be covered releases everything reserved on its behalf.
//
// It returns the attempt plan {x^k_uv} and the provisioned path set D. The
// ledger, the attempt plan and the coverage tables are recycled from the
// slot scratch: the returned plan aliases sc.plan, so it is only valid
// until the next slot (RunSlot consumes it in-slot).
func (e *Engine) createSegmentsPlanScratch(planned []PlannedPath, sc *slotScratch) (qnet.AttemptPlan, []PlannedPath, error) {
	ordered := orderPaths(planned)

	// The ledger reserves against the planning capacities (fault-aware
	// planning shrinks them to the forecast; nil overrides keep the
	// network tables). expected[pk] = Σ_k p^k·x^k currently reserved for
	// the pair; demand[pk] = paths in D using the pair; attempts[pk] =
	// Σ_k x^k currently reserved for the pair.
	ledger := sc.ledger
	ledger.Reset()
	plan, expected, demand, attempts := sc.plan, sc.expected, sc.demand, sc.attempts
	clear(plan)
	clear(expected)
	clear(demand)
	clear(attempts)

	var provisioned []PlannedPath
	for _, p := range ordered {
		// Attempts added on behalf of this path, for rollback, and how
		// many hops had their demand counted before a failure.
		var added []*segment.Candidate
		counted := 0
		ok := true
		for _, hop := range p.Hops {
			demand[hop.Pair]++
			counted++
			for expected[hop.Pair] < float64(demand[hop.Pair]) {
				cand := e.bestReservable(hop.Pair, ledger)
				if cand == nil {
					// Out of resources for redundancy. In strict mode
					// (Algorithm 2 verbatim) the path is released. By
					// default we keep it as long as each demanded segment
					// has at least one dedicated attempt — without this,
					// a 1-channel network could never provision anything
					// (see the Fig. 2 fixture) even though creating
					// segments without redundancy is clearly preferable
					// to idling.
					if e.opts.StrictProvisioning || attempts[hop.Pair] < demand[hop.Pair] {
						ok = false
					}
					break
				}
				if err := ledger.Reserve(cand); err != nil {
					return nil, nil, err
				}
				plan[cand]++
				expected[hop.Pair] += cand.Prob
				attempts[hop.Pair]++
				added = append(added, cand)
			}
			if !ok {
				break
			}
		}
		if ok {
			provisioned = append(provisioned, p)
			continue
		}
		// Rollback: release the attempts added for p and drop its demand.
		for _, cand := range added {
			if err := ledger.Release(cand); err != nil {
				return nil, nil, err
			}
			plan[cand]--
			if plan[cand] == 0 {
				delete(plan, cand)
			}
			pk := segment.MakePairKey(cand.Path[0], cand.Path[len(cand.Path)-1])
			expected[pk] -= cand.Prob
			attempts[pk]--
		}
		for _, hop := range p.Hops[:counted] {
			demand[hop.Pair]--
		}
	}

	// Backup provisioning (§II-F: SEE "provisions redundant entanglement
	// ... some of these entanglement segments will be used as backups"):
	// saturate leftover channels and memory with extra attempts on the
	// segments the provisioned paths demand, topping up the least-covered
	// segments first so availability is equalized.
	if len(provisioned) > 0 {
		keys := sc.keys[:0]
		for pk, d := range demand {
			if d > 0 {
				keys = append(keys, escKey{pk: pk})
			}
		}
		sc.keys = keys
		for {
			// Each key's coverage is computed once per round. Ties break
			// on the unique key, so the order is strict and total: any
			// correct sort yields the same permutation.
			for i := range keys {
				keys[i].cover = expected[keys[i].pk] / float64(demand[keys[i].pk])
			}
			slices.SortFunc(keys, compareEscKeys)
			reserved, err := e.backupRound(keys, ledger, plan, expected, attempts, sc)
			if err != nil {
				return nil, nil, err
			}
			if reserved == 0 {
				break
			}
		}
	}

	if err := ledger.Validate(); err != nil {
		return nil, nil, err
	}
	return plan, provisioned, nil
}

// compareEscKeys orders backup-provisioning keys by coverage, least
// covered first, then by endpoint pair.
func compareEscKeys(a, b escKey) int {
	if a.cover != b.cover {
		if a.cover < b.cover {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.pk.U, b.pk.U); c != 0 {
		return c
	}
	return cmp.Compare(a.pk.V, b.pk.V)
}

// backupRound performs one backup-provisioning pass over the sorted pair
// keys: for each pair, reserve its best reservable candidate (if any).
//
// When the engine is configured for parallel pricing and the pair set is
// large enough, the per-pair candidate scans — the round's dominant cost,
// each a read-only walk over Set.ByPair — are precomputed in parallel
// against the ledger state frozen at round start, then applied serially in
// key order. The outcome is provably the serial one: resources only shrink
// during the apply, so a pair whose precomputed scan found nothing still
// finds nothing (skip), a precomputed candidate that is still reservable
// is exactly the serial choice (all earlier candidates were unreservable
// at round start and remain so), and a precomputed candidate that is no
// longer reservable restarts the serial scan at the next index.
func (e *Engine) backupRound(keys []escKey, ledger *qnet.Ledger,
	plan qnet.AttemptPlan, expected map[segment.PairKey]float64,
	attempts map[segment.PairKey]int, sc *slotScratch) (int, error) {

	parallel := e.opts.Flow.Workers != 1 && len(keys) >= escParallelThreshold
	var pre []escCandidate
	if parallel {
		if cap(sc.escPre) < len(keys) {
			sc.escPre = make([]escCandidate, len(keys))
		}
		pre = sc.escPre[:len(keys)]
		par.For(e.opts.Flow.Workers, len(keys), func(i int) {
			cand, idx := e.bestReservableFrom(keys[i].pk, ledger, 0)
			pre[i] = escCandidate{cand: cand, idx: idx}
		})
	}

	reserved := 0
	for i, k := range keys {
		pk := k.pk
		var cand *segment.Candidate
		if parallel {
			p := pre[i]
			if p.cand == nil {
				continue
			}
			cand = p.cand
			if !ledger.CanReserve(cand) {
				cand, _ = e.bestReservableFrom(pk, ledger, p.idx+1)
			}
		} else {
			cand = e.bestReservable(pk, ledger)
		}
		if cand == nil {
			continue
		}
		if err := ledger.Reserve(cand); err != nil {
			return 0, err
		}
		plan[cand]++
		expected[pk] += cand.Prob
		attempts[pk]++
		reserved++
	}
	return reserved, nil
}

// bestReservable returns the highest-probability candidate for the pair
// that the ledger can still accommodate, or nil.
func (e *Engine) bestReservable(pk segment.PairKey, ledger *qnet.Ledger) *segment.Candidate {
	cand, _ := e.bestReservableFrom(pk, ledger, 0)
	return cand
}

// bestReservableFrom is bestReservable starting the scan at index from in
// the pair's candidate list, also returning the winning index (len of the
// list when nothing is reservable).
func (e *Engine) bestReservableFrom(pk segment.PairKey, ledger *qnet.Ledger, from int) (*segment.Candidate, int) {
	cands := e.Set.ByPair[pk]
	for i := from; i < len(cands); i++ {
		if ledger.CanReserve(cands[i]) {
			return cands[i], i
		}
	}
	return nil, len(cands)
}

// orderPaths implements ESC's ordering: increasing path length (segment
// count, then physical hop count), with round-robin across SD pairs inside
// each equal-length class to preserve fairness.
func orderPaths(planned []PlannedPath) []PlannedPath {
	idx := make([]int, len(planned))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := planned[idx[a]], planned[idx[b]]
		if len(pa.Hops) != len(pb.Hops) {
			return len(pa.Hops) < len(pb.Hops)
		}
		return pa.PhysHops < pb.PhysHops
	})
	// Round-robin inside equal (segments, physHops) classes.
	ordered := make([]PlannedPath, 0, len(planned))
	for start := 0; start < len(idx); {
		end := start
		key := func(i int) [2]int {
			return [2]int{len(planned[idx[i]].Hops), planned[idx[i]].PhysHops}
		}
		for end < len(idx) && key(end) == key(start) {
			end++
		}
		ordered = append(ordered, roundRobin(planned, idx[start:end])...)
		start = end
	}
	return ordered
}

// roundRobin interleaves the paths of a class by commodity: first one path
// of each SD pair, then the second of each, and so on.
func roundRobin(planned []PlannedPath, idx []int) []PlannedPath {
	byCommodity := make(map[int][]PlannedPath)
	var commodities []int
	for _, i := range idx {
		c := planned[i].Commodity
		if _, seen := byCommodity[c]; !seen {
			commodities = append(commodities, c)
		}
		byCommodity[c] = append(byCommodity[c], planned[i])
	}
	sort.Ints(commodities)
	out := make([]PlannedPath, 0, len(idx))
	for round := 0; len(out) < len(idx); round++ {
		for _, c := range commodities {
			if round < len(byCommodity[c]) {
				out = append(out, byCommodity[c][round])
			}
		}
	}
	return out
}
