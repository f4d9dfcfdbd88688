package sched_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

// stitchPhases is a stitch-only engine: no plan phase, an empty creation
// plan, a physical phase that realizes exactly segs, and ECE's two loops
// back to back.
type stitchPhases struct {
	segs    []*qnet.Segment
	fixed   []sched.FixedPath
	pairs   []topo.SDPair
	connCap []int
}

func (p *stitchPhases) PlanPhase(*sched.Slot) bool { return false }

func (p *stitchPhases) ReservePhase(*sched.Slot) (plan, held qnet.AttemptPlan, err error) {
	return nil, nil, nil
}

func (p *stitchPhases) PhysicalHook(s *sched.Slot) { s.Created = p.segs }

func (p *stitchPhases) StitchPhase(s *sched.Slot) (assembled, floorRejected int) {
	assembled, floorRejected = s.StitchFixed(p.fixed, p.connCap)
	a, r := s.StitchRoutes(p.pairs, p.connCap)
	return assembled + a, floorRejected + r
}

// runStitch runs one slot of p over a network of n perfect-swap nodes.
func runStitch(t *testing.T, p *stitchPhases, n int, floors *qnet.FloorSpec) (*sched.SlotResult, sched.TracerCounts) {
	t.Helper()
	net := &topo.Network{G: graph.New(n), SwapProb: make([]float64, n)}
	for i := range net.SwapProb {
		net.SwapProb[i] = 1
	}
	tr := sched.NewCountingTracer()
	r := sched.NewRunner(sched.SlotConfig{Tracer: tr, FidelityFloors: floors}, net, nil)
	res, err := r.Run(p, xrand.New(1), sched.SlotResult{}, len(p.pairs))
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.Counts()
}

func seg(a, b int) *qnet.Segment { return &qnet.Segment{A: a, B: b} }

// A pair StitchFixed already served up to its cap gets nothing more from
// StitchRoutes in the same slot, although the pool could route it again.
func TestStitchRoutesHonoursFixedCap(t *testing.T) {
	p := &stitchPhases{
		segs:    []*qnet.Segment{seg(0, 1), seg(1, 2), seg(0, 1), seg(1, 2)},
		fixed:   []sched.FixedPath{{Commodity: 0, Nodes: graph.Path{0, 1, 2}, Hops: []segment.PairKey{segment.MakePairKey(0, 1), segment.MakePairKey(1, 2)}}},
		pairs:   []topo.SDPair{{S: 0, D: 2}},
		connCap: []int{1},
	}
	res, c := runStitch(t, p, 3, nil)
	if res.Established != 1 || res.Assembled != 1 || c.ConnectionsAssembled != 1 {
		t.Fatalf("established %d, assembled %d (tracer %d), want 1/1/1",
			res.Established, res.Assembled, c.ConnectionsAssembled)
	}
	if p.segs[2].Consumed() || p.segs[3].Consumed() {
		t.Fatal("StitchRoutes consumed the spares of a capped pair")
	}
}

// A pair whose best route misses its floor is rejected once, reported as
// one IncidentFloorReject, and skipped in every later round of the slot.
func TestStitchRoutesFloorDeadOnce(t *testing.T) {
	aged := seg(1, 2)
	aged.SetWernerScale(0.1)
	p := &stitchPhases{
		// Pair 1 on its own component keeps the rounds going for two
		// connections after pair 0 turned floor-dead.
		segs:    []*qnet.Segment{seg(0, 1), aged, seg(3, 4), seg(3, 4)},
		pairs:   []topo.SDPair{{S: 0, D: 2}, {S: 3, D: 4}},
		connCap: []int{2, 2},
	}
	floors := &qnet.FloorSpec{Default: 0.9, PerPair: map[int]float64{1: 0}}
	res, c := runStitch(t, p, 5, floors)
	if res.FloorRejected != 1 || c.IncidentCount(sched.IncidentFloorReject) != 1 {
		t.Fatalf("floor rejections %d (tracer %d), want exactly 1",
			res.FloorRejected, c.IncidentCount(sched.IncidentFloorReject))
	}
	if res.PerPair[0] != 0 || res.PerPair[1] != 2 {
		t.Fatalf("per-pair connections %v, want [0 2]", res.PerPair)
	}
	if p.segs[0].Consumed() || aged.Consumed() {
		t.Fatal("a floor-rejected route kept its segments")
	}
}

// A route over an endpoint pair whose segments an earlier connection of
// the slot used up is rejected, and its other segments stay in the pool.
func TestStitchRoutesRejectsMissingSegment(t *testing.T) {
	p := &stitchPhases{
		segs:    []*qnet.Segment{seg(0, 1), seg(1, 2)},
		pairs:   []topo.SDPair{{S: 1, D: 2}, {S: 0, D: 2}},
		connCap: []int{1, 1},
	}
	res, c := runStitch(t, p, 3, nil)
	if res.Established != 1 || res.PerPair[0] != 1 || res.PerPair[1] != 0 || c.ConnectionsAssembled != 1 {
		t.Fatalf("per-pair connections %v (tracer assembled %d), want [1 0] and 1",
			res.PerPair, c.ConnectionsAssembled)
	}
	if p.segs[0].Consumed() {
		t.Fatal("the rejected route consumed the segment before the missing one")
	}
}

// TestStitchEventsOnlyInSched guards the premise that sched.Runner is the
// one place the stitch events are emitted: no non-test file under
// internal/ outside internal/sched may call ConnectionAssembled or name
// IncidentFloorReject.
func TestStitchEventsOnlyInSched(t *testing.T) {
	banned := regexp.MustCompile(`ConnectionAssembled\(|IncidentFloorReject`)
	root := ".." // internal/
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "sched") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if loc := banned.FindIndex(src); loc != nil {
			t.Errorf("%s emits a stitch event (%q) outside internal/sched", path, src[loc[0]:loc[1]])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
