package warm

import (
	"context"
	"reflect"
	"testing"

	"see/internal/flow"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

func testInstance(t *testing.T) (*topo.Network, []topo.SDPair) {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Nodes = 24
	net, err := topo.Generate(cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 3, xrand.New(4))
	return net, pairs
}

func TestSegmentSetMemoized(t *testing.T) {
	net, pairs := testInstance(t)
	c := New()
	opts := segment.DefaultOptions()

	a, err := c.SegmentSet(nil, net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SegmentSet(nil, net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second lookup did not return the memoized set")
	}
	st := c.Stats()
	if st.SetMisses != 1 || st.SetHits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", st)
	}

	// Different options are a different entry.
	opts2 := opts
	opts2.KPaths = 2
	s2, err := c.SegmentSet(nil, net, pairs, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == a {
		t.Fatal("different options returned the same memoized set")
	}
}

func TestSegmentSetInvalidatesOnMutation(t *testing.T) {
	net, pairs := testInstance(t)
	c := New()
	opts := segment.DefaultOptions()

	a, err := c.SegmentSet(nil, net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the network in place: same pointer, new content fingerprint.
	net.Channels[0]++
	b, err := c.SegmentSet(nil, net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("mutated network replayed the stale set")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation", st)
	}
	if st.SetMisses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (initial + post-mutation)", st)
	}
}

func TestSolveMemoized(t *testing.T) {
	net, pairs := testInstance(t)
	c := New()
	set, err := c.SegmentSet(nil, net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	var fo flow.Options
	a, err := c.Solve(nil, set, fo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Solve(nil, set, fo)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second solve did not return the memoized solution")
	}

	// Workers must not affect the key: the solver is deterministic at any
	// worker count, so a worker-count change is still a hit.
	fo.Workers = 4
	w, err := c.Solve(nil, set, fo)
	if err != nil {
		t.Fatal(err)
	}
	if w != a {
		t.Fatal("worker-count change missed the cache")
	}

	// A capacity override is a different solve.
	fo2 := flow.Options{Channels: make([]int, net.NumLinks())}
	for i := range fo2.Channels {
		fo2.Channels[i] = 1
	}
	s2, err := c.Solve(nil, set, fo2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == a {
		t.Fatal("channel override returned the unconstrained solution")
	}

	// The key copies the slices: mutating the caller's slice afterwards
	// must not corrupt the stored entry.
	fo2.Channels[0] = 99
	s3, err := c.Solve(nil, set, flow.Options{Channels: fo2.Channels})
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s2 {
		t.Fatal("stored key aliased the caller's mutated slice")
	}

	st := c.Stats()
	if st.SolveHits != 2 || st.SolveMisses != 3 {
		t.Fatalf("stats = %+v, want 2 hits 3 misses", st)
	}
}

// TestColdPaths pins the one warm-or-cold decision: a nil cache builds and
// solves exactly like segment.Build and flow.SolveCtx, and a non-nil ctx
// (budgeted construction) builds cold without looking up, inserting or
// counting anything.
func TestColdPaths(t *testing.T) {
	net, pairs := testInstance(t)
	opts := segment.DefaultOptions()
	coldSet, err := segment.Build(net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	coldSol, err := flow.SolveCtx(nil, coldSet, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var nilCache *Cache
	set, err := nilCache.SegmentSet(nil, net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, coldSet) {
		t.Fatal("nil cache built a different segment set than segment.Build")
	}
	sol, err := nilCache.Solve(nil, coldSet, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol, coldSol) {
		t.Fatal("nil cache solved differently than flow.SolveCtx")
	}

	c := New()
	memo, err := c.SegmentSet(nil, net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(nil, memo, flow.Options{}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	ctx := context.Background()
	set, err = c.SegmentSet(ctx, net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if set == memo {
		t.Fatal("budgeted build replayed the memoized set")
	}
	if !reflect.DeepEqual(set, coldSet) {
		t.Fatal("budgeted build differs from segment.Build")
	}
	sol, err = c.Solve(ctx, memo, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.PerCommodity, coldSol.PerCommodity) || sol.Objective != coldSol.Objective {
		t.Fatal("budgeted solve differs from flow.SolveCtx")
	}
	if st := c.Stats(); st != before {
		t.Fatalf("budgeted build moved stats from %+v to %+v", before, st)
	}
	if len(c.sets) != 1 || len(c.solves) != 1 {
		t.Fatalf("budgeted build inserted entries: %d sets, %d solves", len(c.sets), len(c.solves))
	}
}

// TestSolveKeyNilVersusEmpty pins that a nil override ("derive from the
// network" / "no carry bias") and an explicit empty one are different
// solves, for every slice field of the key.
func TestSolveKeyNilVersusEmpty(t *testing.T) {
	for name, pair := range map[string][2]flow.Options{
		"ConnCap":      {{}, {ConnCap: []int{}}},
		"Channels":     {{}, {Channels: []int{}}},
		"Memory":       {{}, {Memory: []int{}}},
		"CarryWeights": {{}, {CarryWeights: []float64{}}},
	} {
		nilKey, emptyKey := makeSolveKey(pair[0]), makeSolveKey(pair[1])
		if nilKey.equal(emptyKey) || emptyKey.equal(nilKey) {
			t.Errorf("%s: nil and empty overrides share a key", name)
		}
		if !nilKey.equal(makeSolveKey(pair[0])) || !emptyKey.equal(makeSolveKey(pair[1])) {
			t.Errorf("%s: a key does not equal its own rebuild", name)
		}
	}
}
