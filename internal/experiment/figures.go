package experiment

import (
	"fmt"
	"strings"

	"see/internal/graph"
	"see/internal/sched"
	"see/internal/topo"
)

// SweepPoint is one x-value of a figure with all algorithms' results.
type SweepPoint struct {
	X       float64
	Results map[Algorithm]PointResult
}

// Sweep holds a whole figure.
type Sweep struct {
	// Name identifies the figure (e.g. "fig3-link-capacity").
	Name string
	// XLabel names the sweep variable.
	XLabel string
	Points []SweepPoint
}

// runSweep evaluates RunPoint over mutations of the base parameters.
func runSweep(name, xlabel string, base Params, xs []float64, apply func(*Params, float64)) (*Sweep, error) {
	sw := &Sweep{Name: name, XLabel: xlabel}
	for _, x := range xs {
		p := base
		apply(&p, x)
		res, err := RunPoint(p)
		if err != nil {
			return nil, fmt.Errorf("%s at %v: %w", name, x, err)
		}
		sw.Points = append(sw.Points, SweepPoint{X: x, Results: res})
	}
	return sw, nil
}

// Fig3LinkCapacity sweeps channels per link over 2..7 (Fig. 3(a)); the
// CDFs of the capacity-2 and capacity-7 points are Figs. 3(b)(c).
func Fig3LinkCapacity(base Params) (*Sweep, error) {
	return runSweep("fig3-link-capacity", "link capacity", base,
		[]float64{2, 3, 4, 5, 6, 7},
		func(p *Params, x float64) { p.Network.Channels = int(x) })
}

// Fig4Alpha sweeps the attenuation parameter α over {1..5}×10⁻⁴
// (Fig. 4(a)); CDFs at 1e-4 and 5e-4 are Figs. 4(b)(c).
func Fig4Alpha(base Params) (*Sweep, error) {
	return runSweep("fig4-alpha", "alpha (1e-4)", base,
		[]float64{1, 2, 3, 4, 5},
		func(p *Params, x float64) { p.Network.Alpha = x * 1e-4 })
}

// Fig5SwapProb sweeps the quantum-swapping success probability over
// 0.5..1.0 (Fig. 5(a)); CDFs at 0.5 and 1.0 are Figs. 5(b)(c).
func Fig5SwapProb(base Params) (*Sweep, error) {
	return runSweep("fig5-swap-prob", "swap success probability", base,
		[]float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		func(p *Params, x float64) { p.Network.SwapProb = x })
}

// Fig6Nodes sweeps the network scale over 100..500 nodes (Fig. 6(a));
// CDFs at 100 and 500 are Figs. 6(b)(c).
func Fig6Nodes(base Params) (*Sweep, error) {
	return runSweep("fig6-nodes", "# of nodes", base,
		[]float64{100, 200, 300, 400, 500},
		func(p *Params, x float64) { p.Network.Nodes = int(x) })
}

// Fig7SDPairs sweeps the workload over 10..50 SD pairs (Fig. 7(a)); CDFs
// at 20 and 50 are Figs. 7(b)(c).
func Fig7SDPairs(base Params) (*Sweep, error) {
	return runSweep("fig7-sd-pairs", "# of SD pairs", base,
		[]float64{10, 20, 30, 40, 50},
		func(p *Params, x float64) { p.SDPairs = int(x) })
}

// Table renders the sweep as tab-separated columns:
// x, SEE mean, REPS mean, E2E mean (gnuplot-compatible).
func (s *Sweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# %s\tSEE\tREPS\tE2E\n", s.Name, s.XLabel)
	for _, pt := range s.Points {
		fmt.Fprintf(&b, "%g", pt.X)
		for _, alg := range sched.Algorithms {
			fmt.Fprintf(&b, "\t%.3f", pt.Results[alg].Throughput.Mean)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// MotivationResult reports the Fig. 2 example: analytic expected
// connections of the conventional solution (Fig. 2(c)) and the SEE
// solution (Fig. 2(d)), computed from the fixture's probabilities.
type MotivationResult struct {
	Conventional float64 // expected 0.729
	SEE          float64 // expected 1.489
}

// Motivation evaluates the two hand-constructed plans of Fig. 2.
func Motivation() MotivationResult {
	net, _ := topo.Motivation()
	pLink := func(a, b int) float64 { return net.SegmentSuccessProb(graph.Path{a, b}) }
	q := func(u int) float64 { return net.SwapProb[u] }

	// Fig. 2(c): entanglement links s2—r1 and r1—d2 joined by a swap at
	// r1. Memory at r1 is exhausted, so (s1,d1) gets nothing.
	conventional := pLink(topo.MotivS2, topo.MotivR1) *
		pLink(topo.MotivR1, topo.MotivD2) *
		q(topo.MotivR1)

	// Fig. 2(d): the all-optical segment s2→r1→d2 frees r1's memory for
	// (s1,d1): link s1—r1 plus segment r1→r2→d1, swapped at r1.
	segS2D2 := net.SegmentSuccessProb(graph.Path{topo.MotivS2, topo.MotivR1, topo.MotivD2})
	segR1D1 := net.SegmentSuccessProb(graph.Path{topo.MotivR1, topo.MotivR2, topo.MotivD1})
	see := segS2D2 + pLink(topo.MotivS1, topo.MotivR1)*segR1D1*q(topo.MotivR1)

	return MotivationResult{Conventional: conventional, SEE: see}
}
