package qnet

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// attemptAllReference is the physical phase as it ran over map-keyed
// plans: it sorts the candidates by endpoint pair, then topo.Key of the
// path, and fires each one's attempts in that order.
// TestArenaAttemptMatchesReference pins Arena.Attempt to it.
func attemptAllReference(plan map[*segment.Candidate]int, rng *rand.Rand, fm FaultModel, obs AttemptObserver) []*Segment {
	cm, _ := fm.(CapacityModel)
	sorted := make([]*segment.Candidate, 0, len(plan))
	total := 0
	for c, n := range plan {
		sorted = append(sorted, c)
		total += n
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
	slab := make([]Segment, 0, total)
	out := make([]*Segment, 0, total)
	for _, c := range sorted {
		if fm != nil && fm.CandidateBlocked(c) {
			if obs != nil {
				for k := 0; k < plan[c]; k++ {
					obs(c, false)
				}
			}
			continue
		}
		granted := plan[c]
		if cm != nil {
			granted = cm.CapAttempts(c, granted)
		}
		for k := 0; k < granted; k++ {
			created := xrand.Bernoulli(rng, c.Prob)
			if created {
				slab = append(slab, Segment{A: c.U(), B: c.V(), Cand: c})
				out = append(out, &slab[len(slab)-1])
			}
			if obs != nil {
				obs(c, created)
			}
		}
		if obs != nil {
			for k := granted; k < plan[c]; k++ {
				obs(c, false)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// planOf builds an ordered plan from entries given in any order.
func planOf(entries ...PlanEntry) AttemptPlan {
	var b PlanBuilder
	for _, e := range entries {
		b.Add(e.Cand, e.N)
	}
	return b.Plan()
}

// blockFaults blocks a fixed candidate set and decoheres nothing; it is
// not a CapacityModel.
type blockFaults struct{ blocked map[*segment.Candidate]bool }

func (f blockFaults) CandidateBlocked(c *segment.Candidate) bool { return f.blocked[c] }

func (f blockFaults) SegmentDecohered() bool { return false }

// brownoutFaults adds per-link attempt budgets that CapAttempts charges as
// it grants, so its grants depend on the order candidates are fired in.
type brownoutFaults struct {
	blockFaults
	budget map[int]int
}

func (f brownoutFaults) CapAttempts(c *segment.Candidate, want int) int {
	for _, id := range c.EdgeIDs {
		if b, ok := f.budget[id]; ok {
			want = min(want, b)
		}
	}
	for _, id := range c.EdgeIDs {
		if _, ok := f.budget[id]; ok {
			f.budget[id] -= want
		}
	}
	return want
}

// TestArenaAttemptMatchesReference fires random plans through Arena.Attempt
// (one arena, reset between plans, so its storage is reused) and
// attemptAllReference from equal rng states, under no fault model, a
// blocking model and a brownout model whose budgets run out mid-plan,
// with and without an observer. The plans are built through one reused
// PlanBuilder from scattered adds and rolled-back candidates. Both must
// realize the same segments, show the observer the same sequence and
// leave the rng in the same state.
func TestArenaAttemptMatchesReference(t *testing.T) {
	type event struct {
		c  *segment.Candidate
		ok bool
	}
	var b PlanBuilder
	var arena Arena
	var dst []*Segment
	for trial := 0; trial < 60; trial++ {
		rng := xrand.New(int64(trial))
		cfg := topo.DefaultConfig()
		cfg.Nodes = 20 + rng.Intn(40)
		net, err := topo.Generate(cfg, xrand.New(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		opts := segment.DefaultOptions()
		opts.MinProb = 0
		set, err := segment.Build(net, topo.ChooseSDPairs(net, 6, rng), opts)
		if err != nil {
			t.Fatal(err)
		}
		var cands []*segment.Candidate
		for _, list := range set.ByEdge {
			cands = append(cands, list...)
		}
		ref := make(map[*segment.Candidate]int)
		b.Reset()
		for _, c := range cands {
			switch rng.Intn(4) {
			case 0: // added, then rolled back
				n := 1 + rng.Intn(3)
				b.Add(c, n)
				b.Add(c, -n)
			case 1: // in the plan, added in two parts
				n := 1 + rng.Intn(6)
				ref[c] = n
				k := rng.Intn(n + 1)
				b.Add(c, k)
				b.Add(c, n-k)
			}
		}
		plan := b.Plan()
		if len(plan) != len(ref) {
			t.Fatalf("trial %d: plan has %d entries, %d candidates were planned", trial, len(plan), len(ref))
		}
		for k, e := range plan {
			if e.N != ref[e.Cand] || e.N != b.Count(e.Cand) || k > 0 && plan[k-1].Cand.ID >= e.Cand.ID {
				t.Fatalf("trial %d: entry %d = %v (count %d), reference %d, or out of ID order", trial, k, e, b.Count(e.Cand), ref[e.Cand])
			}
		}

		blocked := make(map[*segment.Candidate]bool)
		budget := make(map[int]int)
		for _, c := range cands {
			if rng.Intn(5) == 0 {
				blocked[c] = true
			}
			for _, id := range c.EdgeIDs {
				if rng.Intn(6) == 0 {
					budget[id] = rng.Intn(4)
				}
			}
		}
		models := []struct {
			name  string
			model func() FaultModel
		}{
			{"nil", func() FaultModel { return nil }},
			{"blocking", func() FaultModel { return blockFaults{blocked} }},
			{"brownout", func() FaultModel { return brownoutFaults{blockFaults{blocked}, maps.Clone(budget)} }},
		}
		for _, m := range models {
			name, model := m.name, m.model
			for _, observed := range []bool{false, true} {
				var gotEv, wantEv []event
				var gotObs, wantObs AttemptObserver
				if observed {
					gotObs = func(c *segment.Candidate, ok bool) { gotEv = append(gotEv, event{c, ok}) }
					wantObs = func(c *segment.Candidate, ok bool) { wantEv = append(wantEv, event{c, ok}) }
				}
				seed := rng.Int63()
				gotRng, wantRng := xrand.New(seed), xrand.New(seed)
				arena.Reset()
				got := arena.Attempt(dst[:0], plan, gotRng, model(), gotObs)
				dst = got
				want := attemptAllReference(ref, wantRng, model(), wantObs)
				if !slices.EqualFunc(got, want, func(a, b *Segment) bool { return *a == *b }) {
					t.Fatalf("trial %d %s observed=%v: %d segments, reference %d (or different ones)", trial, name, observed, len(got), len(want))
				}
				if !slices.Equal(gotEv, wantEv) {
					t.Fatalf("trial %d %s: observer saw %d attempts, reference %d (or a different sequence)", trial, name, len(gotEv), len(wantEv))
				}
				if gotRng.Int63() != wantRng.Int63() {
					t.Fatalf("trial %d %s observed=%v: rng state differs after the phase", trial, name, observed)
				}
			}
		}
	}
}

// TestPlanBuilderRejectsIDClash: two candidates with one ID mean they come
// from different sets, and the builder panics instead of merging them.
func TestPlanBuilderRejectsIDClash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PlanBuilder accepted two candidates with one ID")
		}
	}()
	var b PlanBuilder
	b.Add(&segment.Candidate{ID: 3}, 1)
	b.Add(&segment.Candidate{ID: 3}, 1)
}
