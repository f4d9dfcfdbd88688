// Command seetopo generates a Waxman quantum data network and prints its
// statistics: degree, link-length and single-link success-probability
// distributions, plus the candidate-segment census for a demand set. Useful
// for calibrating topologies against the paper's stated operating point
// (mean single-link success ≈ 0.8 at α = 2e-4).
//
// The instance is the experiment harness's draw (experiment.Params.Instance)
// and the census uses SEE's candidate enumeration (engines.Enumeration), so
// both match what seesim and seefig schedule over for the same seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"see/internal/engines"
	"see/internal/experiment"
	"see/internal/graph"
	"see/internal/sched"
	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected: it parses args, writes the
// statistics to stdout and diagnostics to stderr, and returns the process
// exit code (2 for a usage error, 1 for a failed build).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seetopo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes = fs.Int("nodes", 200, "number of quantum nodes")
		pairs = fs.Int("pairs", 20, "SD pairs for the segment census")
		alpha = fs.Float64("alpha", 2e-4, "attenuation parameter")
		seed  = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p := experiment.DefaultParams()
	p.Network.Nodes = *nodes
	p.Network.Alpha = *alpha
	p.SDPairs = *pairs
	net, sd, err := p.Instance(xrand.New(*seed))
	if err != nil {
		fmt.Fprintln(stderr, "seetopo:", err)
		return 1
	}
	st := topo.Summarize(net)
	fmt.Fprintf(stdout, "nodes\t%d\nlinks\t%d\navg degree\t%.2f\nmean link\t%.0f km\nmedian link\t%.0f km\nmean link success\t%.3f\ncomponents\t%d\n",
		st.Nodes, st.Links, st.AvgDegree, st.MeanLinkKM, st.MedianLinkKM, st.MeanLinkProb, st.Components)

	// Degree histogram.
	hist := map[int]int{}
	maxDeg := 0
	for u := 0; u < net.NumNodes(); u++ {
		d := net.G.Degree(u)
		hist[d]++
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Fprintln(stdout, "\n# degree histogram")
	for d := 0; d <= maxDeg; d++ {
		if hist[d] > 0 {
			fmt.Fprintf(stdout, "%d\t%d\n", d, hist[d])
		}
	}

	// SD-pair hop distances.
	var hops []int
	for _, p := range sd {
		hops = append(hops, graph.BFSHops(net.G, p.S)[p.D])
	}
	sort.Ints(hops)
	fmt.Fprintln(stdout, "\n# SD pair hop distances (sorted)")
	for _, h := range hops {
		fmt.Fprintf(stdout, "%d ", h)
	}
	fmt.Fprintln(stdout)

	// Candidate segment census with SEE's enumeration.
	enum, _ := engines.Enumeration(sched.SEE)
	set, err := segment.Build(net, sd, enum)
	if err != nil {
		fmt.Fprintln(stderr, "seetopo:", err)
		return 1
	}
	byHops := map[int]int{}
	for _, list := range set.ByPair {
		for _, c := range list {
			byHops[c.Hops()]++
		}
	}
	fmt.Fprintf(stdout, "\n# candidate segments: %d realizations over %d endpoint pairs\n",
		set.NumCandidates(), set.NumPairsWithCandidates())
	fmt.Fprintln(stdout, "# hops\tcount")
	var hs []int
	for h := range byHops {
		hs = append(hs, h)
	}
	sort.Ints(hs)
	for _, h := range hs {
		fmt.Fprintf(stdout, "%d\t%d\n", h, byHops[h])
	}
	return 0
}
