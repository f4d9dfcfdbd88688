package warm

import (
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

	a, err := c.SegmentSet(net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SegmentSet(net, pairs, opts)
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
	s2, err := c.SegmentSet(net, pairs, opts2)
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

	a, err := c.SegmentSet(net, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the network in place: same pointer, new content fingerprint.
	net.Channels[0]++
	b, err := c.SegmentSet(net, pairs, opts)
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
	set, err := c.SegmentSet(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	var fo flow.Options
	a, err := c.Solve(set, fo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Solve(set, fo)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second solve did not return the memoized solution")
	}

	// Workers must not affect the key: the solver is deterministic at any
	// worker count, so a worker-count change is still a hit.
	fo.Workers = 4
	w, err := c.Solve(set, fo)
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
	s2, err := c.Solve(set, fo2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == a {
		t.Fatal("channel override returned the unconstrained solution")
	}

	// The key copies the slices: mutating the caller's slice afterwards
	// must not corrupt the stored entry.
	fo2.Channels[0] = 99
	s3, err := c.Solve(set, flow.Options{Channels: fo2.Channels})
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
