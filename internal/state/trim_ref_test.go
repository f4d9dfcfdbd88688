package state

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"see/internal/qnet"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// trimPlanReference is the bank's trim as it ran over map-keyed plans:
// candidates sorted by endpoint pair, then topo.Key of the path, each
// trimmed by its pair's remaining substitutes, on a copy made at the first
// cut. TestTrimPlanMatchesReference pins (*Bank).TrimPlan to it.
func trimPlanReference(plan map[*segment.Candidate]int, withdrawn []*qnet.Segment, minScale float64) (map[*segment.Candidate]int, int) {
	if len(withdrawn) == 0 || len(plan) == 0 {
		return plan, 0
	}
	avail := make(map[segment.PairKey]int, len(withdrawn))
	for _, s := range withdrawn {
		if minScale > 0 && s.WernerScale() < minScale {
			continue
		}
		avail[s.Pair()]++
	}
	sorted := make([]*segment.Candidate, 0, len(plan))
	for c := range plan {
		sorted = append(sorted, c)
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.U() != b.U() {
			return a.U() < b.U()
		}
		if a.V() != b.V() {
			return a.V() < b.V()
		}
		return topo.Key(a.Path) < topo.Key(b.Path)
	})
	var out map[*segment.Candidate]int
	trimmed := 0
	for _, c := range sorted {
		pk := segment.MakePairKey(c.U(), c.V())
		w := avail[pk]
		if w == 0 {
			continue
		}
		cut := min(w, plan[c])
		if cut == 0 {
			continue
		}
		if out == nil {
			out = make(map[*segment.Candidate]int, len(plan))
			for k, v := range plan {
				out[k] = v
			}
		}
		out[c] -= cut
		if out[c] == 0 {
			delete(out, c)
		}
		avail[pk] -= cut
		trimmed += cut
	}
	if out == nil {
		return plan, 0
	}
	return out, trimmed
}

// orderedPlanReference lists a candidate-keyed plan by endpoint pair, then
// topo.Key of the path: the order map plans were fired in.
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

// TestTrimPlanMatchesReference trims random plans over random candidate
// sets by random withdrawals (several segments per pair, pairs outside
// the plan, decayed Werner scales against random thresholds) with
// (*Bank).TrimPlan and trimPlanReference. The trimmed plans and counts
// must be equal, the input plan unmodified, and an untrimmed plan
// returned as the same slice.
func TestTrimPlanMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := xrand.New(int64(trial))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 15 + rng.Intn(20)
		net, err := topo.Generate(cfg, xrand.New(int64(trial%20)))
		if err != nil {
			t.Fatal(err)
		}
		set, err := segment.Build(net, topo.ChooseSDPairs(net, 4, xrand.New(int64(trial%20))), segment.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var b qnet.PlanBuilder
		ref := make(map[*segment.Candidate]int)
		var withdrawn []*qnet.Segment
		for _, list := range set.ByEdge {
			for _, c := range list {
				if rng.Intn(2) == 0 {
					n := 1 + rng.Intn(4)
					b.Add(c, n)
					ref[c] = n
				}
			}
			for k := rng.Intn(4) - 1; k > 0; k-- {
				s := &qnet.Segment{A: list[0].U(), B: list[0].V(), Cand: list[0]}
				s.SetWernerScale(rng.Float64())
				withdrawn = append(withdrawn, s)
			}
		}
		rng.Shuffle(len(withdrawn), func(i, j int) { withdrawn[i], withdrawn[j] = withdrawn[j], withdrawn[i] })
		plan := b.Plan()
		before := slices.Clone(plan)
		// Half the trials trim through a nil bank (no threshold), half
		// through a bank whose policy sets a random threshold.
		var bank *Bank
		minScale := 0.0
		if rng.Intn(2) == 0 {
			minScale = rng.Float64()
			bank = &Bank{policy: Policy{MinWernerScale: minScale}}
		}
		got, n := bank.TrimPlan(plan, withdrawn)
		wantMap, wantN := trimPlanReference(ref, withdrawn, minScale)
		if want := orderedPlanReference(wantMap); n != wantN || !slices.Equal(got, want) {
			t.Fatalf("trial %d: trimmed %d to %v, reference %d to %v", trial, n, got, wantN, want)
		}
		if !slices.Equal(plan, before) {
			t.Fatalf("trial %d: TrimPlan mutated its input", trial)
		}
		if n == 0 && len(plan) > 0 && &got[0] != &plan[0] {
			t.Fatalf("trial %d: an untrimmed plan came back as a copy", trial)
		}
	}
}
