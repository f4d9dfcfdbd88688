// Command seefig regenerates the data series behind the paper's evaluation
// figures (Figs. 2–7). Output is tab-separated, gnuplot-ready.
//
// Usage:
//
//	seefig -fig 3 -trials 20        # Fig. 3(a) sweep + (b)(c) CDFs
//	seefig -fig 2                   # Fig. 2 motivation table
//	seefig -fig all -trials 100     # everything, paper-scale trials
//
// Lower -trials for a quick look; the paper uses 100.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"see/internal/experiment"
	"see/internal/sched"
)

type figure struct {
	id  string
	run func(experiment.Params) (*experiment.Sweep, error)
	// cdfAt lists the sweep x-values whose per-pair CDFs the paper plots
	// as subfigures (b) and (c).
	cdfAt [2]float64
}

var figures = []figure{
	{"3", experiment.Fig3LinkCapacity, [2]float64{2, 7}},
	{"4", experiment.Fig4Alpha, [2]float64{1, 5}},
	{"5", experiment.Fig5SwapProb, [2]float64{0.5, 1.0}},
	{"6", experiment.Fig6Nodes, [2]float64{100, 500}},
	{"7", experiment.Fig7SDPairs, [2]float64{20, 50}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected: it parses args, writes the
// figure data to stdout and diagnostics to stderr, and returns the process
// exit code (2 for a usage error, 1 for a failed sweep).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seefig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig    = fs.String("fig", "all", "figure to regenerate: 2..7 or all")
		trials = fs.Int("trials", 20, "trials per data point (paper: 100)")
		seed   = fs.Int64("seed", 20220101, "base random seed")
		cdfs   = fs.Bool("cdfs", true, "also print the (b)/(c) per-pair CDFs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := *fig == "all" || *fig == "2"
	for _, f := range figures {
		known = known || *fig == f.id
	}
	if !known {
		fmt.Fprintf(stderr, "seefig: unknown -fig %q\n", *fig)
		return 2
	}

	if *fig == "2" || *fig == "all" {
		printMotivation(stdout)
	}

	base := experiment.DefaultParams()
	base.Trials = *trials
	base.BaseSeed = *seed
	for _, f := range figures {
		if *fig != "all" && *fig != f.id {
			continue
		}
		sw, err := f.run(base)
		if err != nil {
			fmt.Fprintf(stderr, "seefig: figure %s: %v\n", f.id, err)
			return 1
		}
		fmt.Fprintf(stdout, "### Figure %s(a)\n%s\n", f.id, sw.Table())
		if *cdfs {
			printCDFs(stdout, f, sw)
		}
	}
	return 0
}

func printMotivation(w io.Writer) {
	r := experiment.Motivation()
	fmt.Fprintln(w, "### Figure 2 (motivation example, expected connections)")
	fmt.Fprintf(w, "conventional (Fig. 2c)\t%.3f\n", r.Conventional)
	fmt.Fprintf(w, "SEE (Fig. 2d)\t%.3f\n", r.SEE)
	fmt.Fprintf(w, "improvement\t%.2fx\n\n", r.SEE/r.Conventional)
}

func printCDFs(w io.Writer, f figure, sw *experiment.Sweep) {
	for sub, x := range f.cdfAt {
		for _, pt := range sw.Points {
			if pt.X != x {
				continue
			}
			fmt.Fprintf(w, "### Figure %s(%c): per-SD-pair throughput CDF at %s = %g\n",
				f.id, 'b'+sub, sw.XLabel, x)
			for _, alg := range sched.Algorithms {
				cdf := pt.Results[alg].PerPairCDF
				fmt.Fprintf(w, "# %s\n", alg)
				fmt.Fprint(w, cdf.Table())
			}
			fmt.Fprintln(w)
		}
	}
}
