// Package metrics provides the statistics used by the evaluation harness:
// summary statistics with confidence intervals, empirical CDFs (the per-SD-
// pair throughput distributions of Figs. 3–7 (b)(c)), and Jain's fairness
// index for the fairness goal ESC pursues.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the moments of a sample.
type Summary struct {
	N            int
	Mean         float64
	Std          float64
	CI95         float64 // half-width of the normal-approximation 95% CI
	Min, Max     float64
	MedianApprox float64
}

// Summarize computes summary statistics. Empty input yields a zero Summary.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range samples {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(n)
	if n > 1 {
		var ss float64
		for _, x := range samples {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(n-1))
		s.CI95 = 1.96 * s.Std / math.Sqrt(float64(n))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.MedianApprox = sorted[n/2]
	return s
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.CI95, s.N)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	// Xs are the sorted distinct sample values; Ps[i] = P(X <= Xs[i]).
	Xs []float64
	Ps []float64
	n  int
}

// NewCDF builds the empirical CDF of the samples.
func NewCDF(samples []float64) CDF {
	n := len(samples)
	if n == 0 {
		return CDF{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var c CDF
	c.n = n
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		c.Xs = append(c.Xs, sorted[i])
		c.Ps = append(c.Ps, float64(j)/float64(n))
		i = j
	}
	return c
}

// At returns P(X ≤ x).
func (c CDF) At(x float64) float64 {
	if len(c.Xs) == 0 {
		return 0
	}
	// Find the last Xs[i] <= x.
	i := sort.SearchFloat64s(c.Xs, x)
	if i < len(c.Xs) && c.Xs[i] == x {
		return c.Ps[i]
	}
	if i == 0 {
		return 0
	}
	return c.Ps[i-1]
}

// N returns the sample count.
func (c CDF) N() int { return c.n }

// Table renders "x p" rows for plotting (gnuplot-style).
func (c CDF) Table() string {
	var b strings.Builder
	for i := range c.Xs {
		fmt.Fprintf(&b, "%g\t%.4f\n", c.Xs[i], c.Ps[i])
	}
	return b.String()
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) for non-negative
// allocations. It returns 1 for empty or all-zero input (vacuous fairness).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	// Normalize by the maximum to avoid overflow on extreme inputs; the
	// index is scale-invariant.
	var maxX float64
	for _, x := range xs {
		if x > maxX {
			maxX = x
		}
	}
	if maxX == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		v := x / maxX
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
