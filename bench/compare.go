package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// spread summarizes one metric's values over several runs.
type spread struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4), whose default
// (exclusive) method the comparison rule is stated in.
func quartiles(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return spread{}
	case 1:
		return spread{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return spread{N: n, Q1: q[0], Median: q[1], Q3: q[2]}
}

// rel is the quartile distance as a share of the median.
func (s spread) rel() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// readRecords loads a JSON-lines file of -out records.
func readRecords(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		r := &result{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// series collects each (workload, metric) pair's values in file order.
type series map[string]map[string][]float64

// collect gathers the records' metrics, or their raw (unscaled) metrics.
func collect(rs []*result, raw bool) series {
	out := series{}
	for _, r := range rs {
		ms := r.Metrics
		if raw {
			ms = r.RawMetrics
		}
		if len(ms) == 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range ms {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// runSummarize prints, by workload, the median and quartiles of every
// metric and of every raw metric, as JSON: the form of a trajectory
// entry's results.
func runSummarize(path string, stdout, stderr io.Writer) int {
	rs, err := readRecords(path)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	summary := func(s series) map[string]map[string]spread {
		out := map[string]map[string]spread{}
		for w, ms := range s {
			out[w] = map[string]spread{}
			for name, xs := range ms {
				out[w][name] = quartiles(xs)
			}
		}
		return out
	}
	out := map[string]map[string]map[string]spread{
		"metrics":     summary(collect(rs, false)),
		"raw_metrics": summary(collect(rs, true)),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// specMetric is a metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory or, inside bench/, its parent.
func loadSpec() (*benchSpec, error) {
	path := "BENCHMARK.json"
	if _, err := os.Stat(path); err != nil {
		path = filepath.Join("..", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &benchSpec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict classifies change B against parent A for one metric. A pair is
// unresolved when either side's quartile spread is wider than the bound,
// unless every run of B beats every run of A; regressed when B's median
// is worse than A's by more than the bound; improved when B wins at least
// nine in ten of the runs paired in file order and the medians differ by
// more than A's quartile distance; unchanged otherwise. Metrics without a
// bound (per-layer) are only reported.
func verdict(a, b []float64, m specMetric) string {
	if m.Bound == nil {
		return "-"
	}
	sa, sb := quartiles(a), quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	worse := 0.0
	if sa.Median != 0 {
		worse = (sb.Median - sa.Median) / math.Abs(sa.Median)
	}
	if m.Better == "higher" {
		worse = -worse
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	improved := pairs > 0 && wins*10 >= pairs*9 && math.Abs(sb.Median-sa.Median) > sa.Q3-sa.Q1
	allBetter := slices.Max(b) < slices.Min(a)
	if m.Better == "higher" {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case sa.rel() > *m.Bound || sb.rel() > *m.Bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case worse > *m.Bound:
		return "regressed"
	case improved:
		return "improved"
	}
	return "unchanged"
}

// runCompare prints, for every workload, each metric's median and
// quartiles on both sides and its verdict; it exits 1 if any end-to-end
// metric regressed.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	ra, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rb, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	sa, sb := collect(ra, false), collect(rb, false)
	code := 0
	fmt.Fprintf(stdout, "%-13s %-32s %-10s %-34s %-34s %8s %6s %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			a, b := sa[w][m.Name], sb[w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			v := verdict(a, b, m)
			if v == "regressed" {
				code = 1
			}
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			}
			change := 0.0
			if qa.Median != 0 {
				change = (qb.Median - qa.Median) / math.Abs(qa.Median) * 100
			}
			fmt.Fprintf(stdout, "%-13s %-32s %-10s %-34s %-34s %+7.1f%% %6s %s\n", w, m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", qa.Median, qa.Q1, qa.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", qb.Median, qb.Q1, qb.Q3), change, bound, v)
		}
	}
	return code
}
