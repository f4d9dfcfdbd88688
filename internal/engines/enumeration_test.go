package engines

import (
	"testing"

	"see/internal/chaos"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/warm"
	"see/internal/xrand"
)

// pinnedEnumerations is every registered algorithm's candidate
// enumeration, written out independently of the table in engines.go:
// SEE's §III-D enumeration for the six schemes that plan over SEE's
// catalogue, E2E's one whole path per pair and REPS's links, neither
// pruned by probability, and none for Oracle.
func pinnedEnumerations() map[sched.Algorithm]*segment.Options {
	see := segment.Options{KPaths: 5, MaxSegmentHops: 10, MinProb: 0.05, MaxCandidatesPerPair: 3}
	return map[sched.Algorithm]*segment.Options{
		sched.SEE:          &see,
		sched.SEEAware:     &see,
		sched.Contend:      &see,
		sched.ContendAware: &see,
		sched.QPass:        &see,
		sched.Greedy:       &see,
		sched.E2E:          {KPaths: 1, MaxCandidatesPerPair: 3, FullPathOnly: true},
		sched.REPS:         {KPaths: 5, MaxSegmentHops: 1, MaxCandidatesPerPair: 3},
		sched.Oracle:       nil,
	}
}

// TestEnumerationPerScheme pins each registered algorithm's enumeration
// and checks that its builder really builds from it, through one warm
// cache: a cache primed with exactly the pinned sets must serve every
// build with a hit, and a fresh cache must see the six SEE-catalogue
// schemes share one set (one miss), E2E and REPS build one each, and
// Oracle none. Any drift in a scheme's options shows up as a miss.
func TestEnumerationPerScheme(t *testing.T) {
	pinned := pinnedEnumerations()
	for _, alg := range List() {
		want, ok := pinned[alg]
		if !ok {
			t.Fatalf("%v has no pinned enumeration; add it to pinnedEnumerations", alg)
		}
		got, has := Enumeration(alg)
		if has != (want != nil) || (want != nil && got != *want) {
			t.Errorf("Enumeration(%v) = %+v, %v; want %+v", alg, got, has, want)
		}
	}

	cfg := topo.DefaultConfig()
	cfg.Nodes = 40
	net, err := topo.Generate(cfg, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 6, xrand.New(22))

	primed := warm.New()
	distinct := map[segment.Options]bool{}
	for _, o := range pinned {
		if o != nil && !distinct[*o] {
			distinct[*o] = true
			if _, err := primed.SegmentSet(nil, net, pairs, *o); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := primed.Stats()
	for _, alg := range List() {
		if _, err := New(alg, net, pairs, Config{Warm: primed, Workers: 1}); err != nil {
			t.Fatalf("New(%v): %v", alg, err)
		}
	}
	after := primed.Stats()
	if misses := after.SetMisses - before.SetMisses; misses != 0 {
		t.Errorf("builds over the pinned sets missed %d times, want 0", misses)
	}
	if hits := after.SetHits - before.SetHits; hits != uint64(len(pinned)-1) {
		t.Errorf("builds over the pinned sets hit %d times, want %d (every scheme but Oracle)", hits, len(pinned)-1)
	}

	// A forecast plan must not split the aware twins off the shared set:
	// the forecast changes their capacities, not their candidates.
	plan := announcedPlan(t, net)
	plan.NodeOutages = []chaos.Window{{ID: pairs[0].S}}
	fresh := warm.New()
	misses := map[sched.Algorithm]uint64{}
	for _, alg := range List() {
		before := fresh.Stats().SetMisses
		if _, err := New(alg, net, pairs, Config{Warm: fresh, Faults: plan}); err != nil {
			t.Fatalf("New(%v): %v", alg, err)
		}
		misses[alg] = fresh.Stats().SetMisses - before
	}
	var seeFamily uint64
	for _, alg := range []sched.Algorithm{sched.SEE, sched.SEEAware, sched.Contend, sched.ContendAware, sched.QPass, sched.Greedy} {
		seeFamily += misses[alg]
	}
	if seeFamily != 1 {
		t.Errorf("SEE-catalogue schemes missed %d times, want 1 shared set (%v)", seeFamily, misses)
	}
	for alg, want := range map[sched.Algorithm]uint64{sched.E2E: 1, sched.REPS: 1, sched.Oracle: 0} {
		if misses[alg] != want {
			t.Errorf("%v missed %d times, want %d", alg, misses[alg], want)
		}
	}
}

// TestNewValidatesInstance checks the instance checks every construction
// path shares: a nil network is rejected for every scheme, and an empty
// demand set for every scheme that plans over candidates; Oracle's bounds
// of no pairs are simply empty.
func TestNewValidatesInstance(t *testing.T) {
	net, pairs := topo.Motivation()
	for _, alg := range List() {
		if _, err := New(alg, nil, pairs, Config{}); err == nil {
			t.Errorf("New(%v): nil network accepted", alg)
		}
		if _, err := NewResilient(alg, nil, pairs, Config{}); err == nil {
			t.Errorf("NewResilient(%v): nil network accepted", alg)
		}
		_, err := New(alg, net, nil, Config{})
		_, rerr := NewResilient(alg, net, nil, Config{})
		if _, plans := Enumeration(alg); plans {
			if err == nil || rerr == nil {
				t.Errorf("%v: empty pairs accepted (New: %v, NewResilient: %v)", alg, err, rerr)
			}
		} else if err != nil || rerr != nil {
			t.Errorf("%v: empty pairs rejected (New: %v, NewResilient: %v)", alg, err, rerr)
		}
	}
}
