package core

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"testing"

	"see/internal/flow"
	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// escReference is ESC as it ran before its tables moved to dense edge
// IDs: coverage tables in maps keyed by segment.PairKey, Set.ByPair
// lookups, rollback re-hashing each candidate's endpoint pair, and
// orderPaths' per-class commodity map. It scans serially (the removed
// parallel scan was exact by construction). It runs on its own ledger
// and tables, accumulates its plan in a candidate-keyed map and returns it
// in the physical phase's order (orderedPlanReference).
// TestESCMatchesReference pins createSegmentsPlanScratch to it. A non-nil
// tr records what the slot exercised.
func (e *Engine) escReference(planned []PlannedPath, tr *escTrace) (qnet.AttemptPlan, []PlannedPath, error) {
	ordered := orderPathsReference(planned)

	ledger := qnet.NewLedgerWithCapacities(e.Net, e.opts.Flow.Channels, e.opts.Flow.Memory)
	plan := make(map[*segment.Candidate]int)
	expected := make(map[segment.PairKey]float64)
	demand := make(map[segment.PairKey]int)
	attempts := make(map[segment.PairKey]int)
	bestReservable := func(pk segment.PairKey) *segment.Candidate {
		for _, c := range e.Set.ByPair[pk] {
			if ledger.CanReserve(c) {
				return c
			}
		}
		return nil
	}

	dropped := make(map[segment.PairKey]bool) // demand fell to 0 in a rollback
	var provisioned []PlannedPath
	for _, p := range ordered {
		var added []*segment.Candidate
		counted := 0
		ok := true
		for _, hop := range p.Hops {
			if tr != nil && dropped[hop.Pair] && demand[hop.Pair] == 0 {
				tr.redemanded = true
			}
			demand[hop.Pair]++
			counted++
			for expected[hop.Pair] < float64(demand[hop.Pair]) {
				cand := bestReservable(hop.Pair)
				if cand == nil {
					if e.opts.StrictProvisioning || attempts[hop.Pair] < demand[hop.Pair] {
						ok = false
					}
					break
				}
				if err := ledger.Reserve(cand, 1); err != nil {
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
		for _, cand := range added {
			if err := ledger.Release(cand, 1); err != nil {
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
		if tr != nil && len(added) > 0 {
			tr.released = true
		}
		for _, hop := range p.Hops[:counted] {
			demand[hop.Pair]--
			if demand[hop.Pair] == 0 {
				dropped[hop.Pair] = true
			}
		}
	}

	if len(provisioned) > 0 {
		type key struct {
			pk    segment.PairKey
			cover float64
		}
		var keys []key
		for pk, d := range demand {
			if d > 0 {
				keys = append(keys, key{pk: pk})
			}
		}
		for {
			for i := range keys {
				keys[i].cover = expected[keys[i].pk] / float64(demand[keys[i].pk])
			}
			slices.SortFunc(keys, func(a, b key) int {
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
			})
			reserved := 0
			for _, k := range keys {
				cand := bestReservable(k.pk)
				if cand == nil {
					continue
				}
				if err := ledger.Reserve(cand, 1); err != nil {
					return nil, nil, err
				}
				plan[cand]++
				expected[k.pk] += cand.Prob
				attempts[k.pk]++
				reserved++
			}
			if reserved == 0 {
				break
			}
			if tr != nil {
				tr.backupRounds++
			}
		}
	}

	if err := ledger.Validate(); err != nil {
		return nil, nil, err
	}
	if tr != nil {
		for pk := range demand {
			tr.demanded = append(tr.demanded, pk)
		}
	}
	return orderedPlanReference(plan), provisioned, nil
}

// escTrace records what one escReference slot exercised: a rollback that
// released attempts, an edge demanded again after a rollback dropped its
// demand to zero, the number of backup rounds that reserved, and every
// pair the slot demanded.
type escTrace struct {
	released, redemanded bool
	backupRounds         int
	demanded             []segment.PairKey
}

// sortedPairs returns the pairs sorted by (U, V), duplicates kept.
func sortedPairs(pks []segment.PairKey) []segment.PairKey {
	out := slices.Clone(pks)
	slices.SortFunc(out, func(a, b segment.PairKey) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return out
}

// orderedPlanReference lists a candidate-keyed plan in the order the
// physical phase fired a map plan before plans were ordered slices: by
// endpoint pair, then by topo.Key of the path.
func orderedPlanReference(m map[*segment.Candidate]int) qnet.AttemptPlan {
	var plan qnet.AttemptPlan
	for c, n := range m {
		plan = append(plan, qnet.PlanEntry{Cand: c, N: n})
	}
	slices.SortFunc(plan, func(a, b qnet.PlanEntry) int {
		return cmp.Or(cmp.Compare(a.Cand.U(), b.Cand.U()), cmp.Compare(a.Cand.V(), b.Cand.V()),
			cmp.Compare(topo.Key(a.Cand.Path), topo.Key(b.Cand.Path)))
	})
	return plan
}

// orderPathsReference is ESC's path order as it was computed with a
// per-class commodity map.
func orderPathsReference(planned []PlannedPath) []PlannedPath {
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
	ordered := make([]PlannedPath, 0, len(planned))
	for start := 0; start < len(idx); {
		end := start
		key := func(i int) [2]int {
			return [2]int{len(planned[idx[i]].Hops), planned[idx[i]].PhysHops}
		}
		for end < len(idx) && key(end) == key(start) {
			end++
		}
		byCommodity := make(map[int][]PlannedPath)
		var commodities []int
		for _, i := range idx[start:end] {
			c := planned[i].Commodity
			if _, seen := byCommodity[c]; !seen {
				commodities = append(commodities, c)
			}
			byCommodity[c] = append(byCommodity[c], planned[i])
		}
		sort.Ints(commodities)
		for round := 0; len(ordered) < end; round++ {
			for _, c := range commodities {
				if round < len(byCommodity[c]) {
					ordered = append(ordered, byCommodity[c][round])
				}
			}
		}
		start = end
	}
	return ordered
}

// TestESCMatchesReference runs createSegmentsPlanScratch and escReference
// on the same planned paths over random networks with scarce and ample
// channels and memory, lossy and lossless links, SEE and E2E candidates,
// strict and best-effort
// provisioning and forecast-shrunk planning capacities, over one reused
// slot scratch. Planned paths are EPI's, sometimes shuffled and
// duplicated. The attempt plans and provisioned paths must be equal.
func TestESCMatchesReference(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		rng := xrand.New(int64(100 + trial))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 20 + rng.Intn(30)
		cfg.Channels = 1 + rng.Intn(4)
		cfg.Memory = 1 + rng.Intn(6)
		if trial%5 == 4 {
			// Lossless links: every candidate has p = 1, so coverage
			// ratios tie across pairs and the backup order's tie-break
			// decides which pair gets a contested channel.
			cfg.Alpha, cfg.Delta = 0, 0
		}
		net, err := topo.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		pairs := topo.ChooseSDPairs(net, 2+rng.Intn(6), rng)
		opts := DefaultOptions()
		opts.StrictProvisioning = trial%2 == 1
		seg := seeEnumeration()
		seg.FullPathOnly = trial%3 == 2
		if trial%4 == 3 {
			opts.Flow.Channels = slices.Clone(net.Channels)
			for i := range opts.Flow.Channels {
				opts.Flow.Channels[i] = max(0, opts.Flow.Channels[i]-rng.Intn(2))
			}
		}
		e, err := newEngine(net, pairs, seg, opts)
		if err != nil {
			t.Fatal(err)
		}
		sc := e.scratch()
		for slot := 0; slot < 15; slot++ {
			planned := e.identifyPathsLP(nil, e.LP, rng)
			if slot%3 == 2 {
				rng.Shuffle(len(planned), func(i, j int) { planned[i], planned[j] = planned[j], planned[i] })
				planned = append(planned, planned[:len(planned)/2]...)
			}
			wantPlan, wantProv, err := e.escReference(planned, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotPlan, gotProv, err := e.createSegmentsPlanScratch(planned, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotPlan, wantPlan) {
				t.Fatalf("trial %d slot %d: plan %v, reference %v", trial, slot, gotPlan, wantPlan)
			}
			if len(gotProv)+len(wantProv) > 0 && !reflect.DeepEqual(gotProv, wantProv) {
				t.Fatalf("trial %d slot %d: provisioned %d paths, reference %d (or different ones)", trial, slot, len(gotProv), len(wantProv))
			}
		}
	}
}

// TestESCBackupRoundsMatchReference runs createSegmentsPlanScratch and
// escReference on networks with ample channels and memory, where backup
// provisioning runs several rounds and its keys die at different rounds
// (TestESCMatchesReference's scarce instances saturate within one round).
// The attempt plans and provisioned paths must be equal.
func TestESCBackupRoundsMatchReference(t *testing.T) {
	for trial := 0; trial < 16; trial++ {
		rng := xrand.New(int64(300 + trial))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 20 + rng.Intn(30)
		cfg.Channels = 4 + rng.Intn(8)
		cfg.Memory = 10 + rng.Intn(30)
		if trial%4 == 3 {
			cfg.Alpha, cfg.Delta = 0, 0 // lossless: coverage ratios tie
		}
		net, err := topo.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.StrictProvisioning = trial%2 == 1
		e, err := newEngine(net, topo.ChooseSDPairs(net, 2+rng.Intn(6), rng), seeEnumeration(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sc := e.scratch()
		for slot := 0; slot < 8; slot++ {
			planned := e.identifyPathsLP(nil, e.LP, rng)
			wantPlan, wantProv, err := e.escReference(planned, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotPlan, gotProv, err := e.createSegmentsPlanScratch(planned, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotPlan, wantPlan) {
				t.Fatalf("trial %d slot %d: plan %v, reference %v", trial, slot, gotPlan, wantPlan)
			}
			if len(gotProv)+len(wantProv) > 0 && !reflect.DeepEqual(gotProv, wantProv) {
				t.Fatalf("trial %d slot %d: provisioned %d paths, reference %d (or different ones)", trial, slot, len(gotProv), len(wantProv))
			}
		}
	}
}

// TestESCRollbackThenBackupMatchesReference runs createSegmentsPlanScratch
// and escReference on networks between the scarce and ample fixtures (2–5
// channels, 4–12 memory units, SEE and E2E candidates), where a slot can
// roll a path back, release its attempts, demand the dropped edge again for
// a later path and still run several backup rounds. That is where ESC's
// decided state is easiest to get wrong: an edge listed twice, or a
// candidate cursor left past a candidate the release made reservable
// again. The attempt plans and provisioned paths must be equal, and some
// slots must release, re-demand a dropped edge and then reserve in at least
// two backup rounds.
func TestESCRollbackThenBackupMatchesReference(t *testing.T) {
	exercised := 0
	for trial := 0; trial < 24; trial++ {
		rng := xrand.New(int64(500 + trial))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 20 + rng.Intn(30)
		cfg.Channels = 2 + rng.Intn(4)
		cfg.Memory = 4 + rng.Intn(9)
		net, err := topo.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.StrictProvisioning = trial%2 == 1
		seg := seeEnumeration()
		seg.FullPathOnly = trial%3 == 2
		e, err := newEngine(net, topo.ChooseSDPairs(net, 4+rng.Intn(6), rng), seg, opts)
		if err != nil {
			t.Fatal(err)
		}
		sc := e.scratch()
		for slot := 0; slot < 12; slot++ {
			planned := e.identifyPathsLP(nil, e.LP, rng)
			if slot%2 == 1 {
				// Shuffled duplicates demand the same edges again.
				rng.Shuffle(len(planned), func(i, j int) { planned[i], planned[j] = planned[j], planned[i] })
				planned = append(planned, planned[:len(planned)/2]...)
			}
			var tr escTrace
			wantPlan, wantProv, err := e.escReference(planned, &tr)
			if err != nil {
				t.Fatal(err)
			}
			gotPlan, gotProv, err := e.createSegmentsPlanScratch(planned, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotPlan, wantPlan) {
				t.Fatalf("trial %d slot %d: plan %v, reference %v", trial, slot, gotPlan, wantPlan)
			}
			if len(gotProv)+len(wantProv) > 0 && !reflect.DeepEqual(gotProv, wantProv) {
				t.Fatalf("trial %d slot %d: provisioned %d paths, reference %d (or different ones)", trial, slot, len(gotProv), len(wantProv))
			}
			// Each demanded edge is listed once: a duplicate would reserve
			// twice per backup round, which the plans above show only when
			// its extra attempts take a resource another key needed.
			var listed []segment.PairKey
			for _, id := range sc.demanded {
				listed = append(listed, e.Set.EdgePairs[id])
			}
			if !slices.Equal(sortedPairs(listed), sortedPairs(tr.demanded)) {
				t.Fatalf("trial %d slot %d: listed edges %v, reference demanded %v", trial, slot, listed, tr.demanded)
			}
			if tr.released && tr.redemanded && tr.backupRounds >= 2 {
				exercised++
			}
		}
	}
	t.Logf("%d slots released, re-demanded a dropped edge and ran at least two backup rounds", exercised)
	if exercised == 0 {
		t.Fatal("no slot released, re-demanded a dropped edge and ran at least two backup rounds")
	}
}

// TestInsertionSortEscKeysMatchesSortFunc sorts random backup keys of
// every length up to 288, with few distinct coverages (ties broken by
// edge) and with all-distinct ones, from a random order and from a nearly
// sorted one (a sorted list whose coverages then rise, as between backup
// rounds), by insertionSortEscKeys, and requires the permutation
// slices.SortFunc gives under the (cover, edge) order.
func TestInsertionSortEscKeysMatchesSortFunc(t *testing.T) {
	rng := xrand.New(11)
	byCoverEdge := func(a, b escKey) int {
		return cmp.Or(cmp.Compare(a.cover, b.cover), cmp.Compare(a.edge, b.edge))
	}
	for n := 0; n <= 288; n++ {
		for _, levels := range []int{3, 0} {
			keys := make([]escKey, n)
			for i, e := range rng.Perm(4 * n) {
				if i == n {
					break
				}
				cover := rng.Float64()
				if levels > 0 {
					cover = float64(rng.Intn(levels)) / 2
				}
				keys[i] = escKey{edge: e, cover: cover}
			}
			risen := slices.Clone(keys)
			slices.SortFunc(risen, byCoverEdge)
			for i := range risen {
				if rng.Intn(2) == 0 {
					risen[i].cover += float64(rng.Intn(3)) / 4
				}
			}
			for _, in := range [][]escKey{keys, risen} {
				want := slices.Clone(in)
				slices.SortFunc(want, byCoverEdge)
				got := slices.Clone(in)
				insertionSortEscKeys(got)
				if !slices.Equal(got, want) {
					t.Fatalf("n %d: insertionSortEscKeys gave %v, want %v", n, got, want)
				}
			}
		}
	}
}

// TestOrderPathsMatchesReference compares the packed-key path order with
// the per-class commodity map it replaced on random planned lists with
// few classes and many ties, then with fields spread over wide ranges so
// every packed field takes from zero to many bits, and checks that a list
// whose fields cannot share 64 bits is refused.
func TestOrderPathsMatchesReference(t *testing.T) {
	rng := xrand.New(5)
	var sc slotScratch
	for trial := 0; trial < 1000; trial++ {
		// Narrow ranges tie often; wide ones need wide key fields.
		commodities, segs, phys := 5, 3, 3
		if trial >= 500 {
			commodities, segs, phys = 1<<rng.Intn(21), 1<<rng.Intn(9), 1<<rng.Intn(17)
		}
		planned := make([]PlannedPath, rng.Intn(30))
		if trial%50 == 49 {
			// A long list widens the index and rank fields.
			planned, segs = make([]PlannedPath, 1000+rng.Intn(3000)), 3
		}
		for i := range planned {
			planned[i] = PlannedPath{
				Commodity: rng.Intn(commodities),
				Hops:      make([]flow.SegHop, 1+rng.Intn(segs)),
				PhysHops:  rng.Intn(phys),
				Nodes:     graph.Path{i}, // identifies the path
			}
		}
		got, err := sc.orderPaths(planned)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := orderPathsReference(planned); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: order %v, reference %v", trial, got, want)
		}
	}
	wide := []PlannedPath{{Commodity: 1 << 40, Hops: make([]flow.SegHop, 1), PhysHops: 1 << 30}}
	if _, err := sc.orderPaths(wide); err == nil {
		t.Fatal("a 75-bit key was accepted")
	}
}
