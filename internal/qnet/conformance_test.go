package qnet

import (
	"math"
	"strings"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// binomialZ is the standard score of k successes in n Bernoulli(p) trials.
func binomialZ(k, n int, p float64) float64 {
	return (float64(k) - float64(n)*p) / math.Sqrt(float64(n)*p*(1-p))
}

// The physical phase samples the paper's segment model: over 10⁵
// Arena.Attempt attempts, every candidate's created/attempted ratio matches
// its p = e^{−αl} + δ (PAPER.md §1, step 3) within a binomial |z| ≤ 5. The
// model p is computed here from the candidate's links, not read from the
// candidate, and δ stays within its ±Delta band.
func TestArenaAttemptConformsToSegmentModel(t *testing.T) {
	const (
		alpha, delta = 4e-4, 0.05
		seed         = 17
		attempts     = 100_000
	)
	cfg := topo.DefaultConfig()
	cfg.Alpha, cfg.Delta = alpha, delta
	net, err := topo.NSFNet(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	set, err := segment.Build(net, []topo.SDPair{{S: 0, D: 13}, {S: 1, D: 12}, {S: 2, D: 10}}, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	model := topo.ExpProber{Alpha: alpha, Delta: delta, Seed: seed}
	rng := xrand.New(99)
	checked := 0
	for _, cands := range set.ByEdge {
		for _, c := range cands {
			l := 0.0
			for _, id := range c.EdgeIDs {
				l += net.LinkLen[id]
			}
			p := min(max(model.SegmentProb(c.Path, l), 0), 1)
			if math.Abs(p-math.Exp(-alpha*l)) > delta+1e-12 {
				t.Fatalf("candidate %v: model p %v outside e^(-αl) ± δ", c.Path, p)
			}
			if math.Abs(c.Prob-p) > 1e-12 {
				t.Errorf("candidate %v: Prob %v, model p %v", c.Path, c.Prob, p)
			}
			created := len(attemptFresh(AttemptPlan{{Cand: c, N: attempts}}, rng, nil, nil))
			if z := binomialZ(created, attempts, p); math.Abs(z) > 5 {
				t.Errorf("candidate %v (%.0f km): created %d/%d = %.4f, p = %.4f, z = %.1f",
					c.Path, l, created, attempts, float64(created)/attempts, p, z)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d candidates checked", checked)
	}
}

// Swaps sample the paper's swap model: under both swap orders, every
// junction's successes over its sampled swaps (retries on spare segments
// included) match its q (PAPER.md §1, step 4) within a binomial |z| ≤ 5.
func TestSwapsConformToSwapModel(t *testing.T) {
	const connections = 100_000
	// A five-node line whose junctions have distinct q; greedy order
	// visits them 2, 3, 1.
	q := map[int]float64{1: 0.9, 2: 0.55, 3: 0.75}
	net, err := topo.LoadEdgeList(strings.NewReader(`
node 0 0 0
node 1 100 0 10 0.9
node 2 200 0 10 0.55
node 3 300 0 10 0.75
node 4 400 0
link 0 1
link 1 2
link 2 3
link 3 4
`), topo.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := []int{0, 1, 2, 3, 4}
	for _, order := range []SwapOrder{SwapOrderPath, SwapOrderGreedy} {
		sampled, succeeded := map[int]int{}, map[int]int{}
		obs := func(junction int, ok bool) {
			sampled[junction]++
			if ok {
				succeeded[junction]++
			}
		}
		rng := xrand.New(7)
		for range connections {
			// One segment per hop plus one spare on each, so a failed
			// swap can retry once per side.
			segs := make([]Segment, 2*(len(path)-1))
			ptrs := make([]*Segment, len(segs))
			c := &Connection{Nodes: path}
			for i := range segs {
				h := i % (len(path) - 1)
				segs[i] = Segment{A: path[h], B: path[h+1]}
				ptrs[i] = &segs[i]
			}
			pool := NewPool(ptrs)
			for h := 0; h+1 < len(path); h++ {
				c.Segments = append(c.Segments, pool.TakeAt(pool.IndexOf(segment.MakePairKey(path[h], path[h+1]))))
			}
			c.EstablishOrderedObserved(net, pool, nil, rng, obs, order, nil)
		}
		for j, want := range q {
			if sampled[j] < 10_000 {
				t.Fatalf("%v: junction %d sampled only %d swaps", order, j, sampled[j])
			}
			if z := binomialZ(succeeded[j], sampled[j], want); math.Abs(z) > 5 {
				t.Errorf("%v: junction %d swapped %d/%d = %.4f, q = %.2f, z = %.1f",
					order, j, succeeded[j], sampled[j], float64(succeeded[j])/float64(sampled[j]), want, z)
			}
		}
	}
}
