package metrics_test

import (
	"fmt"

	"see/internal/metrics"
)

// Summaries power every throughput table in the evaluation.
func ExampleSummarize() {
	s := metrics.Summarize([]float64{18, 20, 22, 24})
	fmt.Printf("mean=%.0f n=%d\n", s.Mean, s.N)
	// Output: mean=21 n=4
}

// The empirical CDF reproduces the paper's per-SD-pair subplots.
func ExampleNewCDF() {
	cdf := metrics.NewCDF([]float64{0, 1, 1, 2})
	fmt.Print(cdf.Table())
	// Output:
	// 0	0.2500
	// 1	0.7500
	// 2	1.0000
}

// Jain's index quantifies the fairness goal of ESC's round-robin ordering.
func ExampleJainIndex() {
	fmt.Printf("equal=%.2f skewed=%.2f\n",
		metrics.JainIndex([]float64{2, 2, 2, 2}),
		metrics.JainIndex([]float64{8, 0, 0, 0}))
	// Output: equal=1.00 skewed=0.25
}
