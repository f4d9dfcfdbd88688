//go:build benchcheck

// The harness tests run with the benchcheck build tag:
//
//	go -C bench test -tags benchcheck .
package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/serve"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	nodes: 40, pairs: 6, carryNodes: 30, carryPairs: 4,
	verifySlots: 3, calSlots: 10, setupReps: 2, probeInst: 1,
	cold:   sizes{inst: 3, block: 1},
	warm:   sizes{inst: 2, block: 10},
	bursty: sizes{inst: 1, block: 50},
	carry:  sizes{inst: 1, block: 10},
}

func tiny(t *testing.T, w *workload, seed int64, traced bool) *result {
	t.Helper()
	o := options{w: w, seed: seed, seconds: 0.05, traced: traced, scale: tinyScale}
	if traced {
		o.spansPath = filepath.Join(t.TempDir(), "spans.json")
	}
	res, err := runWorkload(o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	slices.Sort(out)
	return out
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+"/traced="+strconv.FormatBool(traced), func(t *testing.T) {
				res := tiny(t, w, 3, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d failures=%q", res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				got := make([]string, 0, len(res.Metrics))
				for name, m := range res.Metrics {
					got = append(got, name)
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				slices.Sort(got)
				if !slices.Equal(got, names(defs)) {
					t.Errorf("metrics %v, want %v", got, names(defs))
				}
			})
		}
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := tiny(t, w, 5, false), tiny(t, w, 5, false)
			tr := tiny(t, w, 5, true)
			for _, r := range []*result{b, tr} {
				if r.Digest != a.Digest || r.PrefixSlots != a.PrefixSlots || r.PrefixEstablished != a.PrefixEstablished {
					t.Errorf("seed 5 gave digest %s (%d slots, %d established), then %s (%d, %d)",
						a.Digest, a.PrefixSlots, a.PrefixEstablished, r.Digest, r.PrefixSlots, r.PrefixEstablished)
				}
			}
			if c := tiny(t, w, 6, false); c.Digest == a.Digest {
				t.Errorf("seeds 5 and 6 gave the same digest %s", c.Digest)
			}
		})
	}
}

// inflated claims 1000 extra connections for pair 0 in every slot, kept
// consistent with Assembled and the connection list, so only the oracle
// bound can catch it.
type inflated struct{ sched.Engine }

func (e inflated) RunSlot(rng *rand.Rand) (*sched.SlotResult, error) {
	res, err := e.Engine.RunSlot(rng)
	if err != nil || len(res.PerPair) == 0 {
		return res, err
	}
	const extra = 1000
	out := *res
	out.PerPair = slices.Clone(res.PerPair)
	out.PerPair[0] += extra
	out.Established += extra
	out.Assembled += extra
	out.Connections = slices.Clone(res.Connections)
	for range extra {
		out.Connections = append(out.Connections, &qnet.Connection{Pair: 0, Fidelity: 1})
	}
	return &out, nil
}

func TestInflatedEstablishedFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			code := runSingle(options{w: w, seed: 3, seconds: 0.05, scale: tinyScale,
				wrap: func(e sched.Engine) sched.Engine { return inflated{e} }}, &out, io.Discard)
			if code == 0 {
				t.Fatal("inflated deliveries exited 0")
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if last.Correct || last.Failed == 0 {
				t.Errorf("result line %q, want correct=false and failures", lines[len(lines)-1])
			}
			if !strings.Contains(out.String(), "Hard") && !strings.Contains(out.String(), "oracle bound") {
				t.Errorf("no oracle-bound failure reported:\n%s", out.String())
			}
		})
	}
}

func TestResultLineKeys(t *testing.T) {
	var out bytes.Buffer
	printResult(&out, &result{Workload: "x", Correct: true, Attempted: 1, Metrics: fill(endToEnd, nil)})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result line keys %v, want %v", keys, want)
	}
}

func TestAggregateResultLine(t *testing.T) {
	all := resultLine{Correct: true, Metrics: map[string]metric{}}
	all.add("a", "# a\n"+`{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"}}}`+"\n")
	all.add("b", "# b\n"+`{"correct":false,"attempted":3,"failed":2,"metrics":{}}`+"\n")
	all.add("c", "bench: c: set-up failed\n")
	if all.Correct || all.Attempted != 9 || all.Failed != 3 {
		t.Errorf("aggregate correct=%v attempted=%d failed=%d, want false 9 3", all.Correct, all.Attempted, all.Failed)
	}
	if m, ok := all.Metrics["a/setup_s"]; !ok || m.Value != 1 {
		t.Errorf("aggregate metrics %v", all.Metrics)
	}
	ok := resultLine{Correct: true, Metrics: map[string]metric{}}
	ok.add("a", `{"correct":true,"attempted":5,"failed":0,"metrics":{}}`)
	if !ok.Correct || ok.Failed != 0 {
		t.Errorf("aggregate of a passing run: %+v", ok)
	}
}

func TestArrivalSpec(t *testing.T) {
	cfg, err := serve.ParseSpec(arrivalSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := cfg.Process.(*serve.Bursty)
	if !ok {
		t.Fatalf("process %T, want *serve.Bursty", cfg.Process)
	}
	if mean := (b.Calm + b.Burst) / 2; math.Abs(mean-arrivalLoad*10) > 1e-9 || math.Abs(b.Burst-4*b.Calm) > 1e-9 {
		t.Errorf("calm %v burst %v: mean %v, want %v at a 4x burst", b.Calm, b.Burst, mean, arrivalLoad*10)
	}
	if cfg.Users != 120 || cfg.MaxActive != 108 || cfg.Deadline != [serve.NumClasses]int{4, 8, 16} {
		t.Errorf("users %d max-active %d deadlines %v", cfg.Users, cfg.MaxActive, cfg.Deadline)
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and the code in step: the
// workloads, every emitted metric's name, unit and direction, and the
// limits the file must meet.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	var wnames []string
	for _, w := range spec.Workloads {
		wnames = append(wnames, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why %q", w.Name, w.Why)
		}
		if lw, ok := lookupWorkload(w.Name); ok && lw.why != w.Why {
			t.Errorf("workload %s: why %q in BENCHMARK.json, %q in the code", w.Name, w.Why, lw.why)
		}
	}
	if !slices.Equal(wnames, workloadNames()) {
		t.Errorf("workloads %v, want %v", wnames, workloadNames())
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %s %s %s, want %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: %s bound %v", kind, g.Name, g.Bound)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	for _, m := range spec.EndToEnd {
		if m.Name != "setup_s" && m.Bound != nil && spec.EndToEnd[0].Bound != nil && *m.Bound > *spec.EndToEnd[0].Bound {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, *m.Bound, *spec.EndToEnd[0].Bound)
		}
	}
}

// allowedInternal are the packages the benchmark may import: their stable
// entry points only, so refactors of the engines themselves cannot break
// the benchmark's build.
var allowedInternal = []string{
	"see/internal/engines", "see/internal/flow", "see/internal/graph", "see/internal/oracle",
	"see/internal/qnet", "see/internal/sched", "see/internal/segment", "see/internal/serve",
	"see/internal/state", "see/internal/topo", "see/internal/warm",
}

func TestImportsAllowlisted(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "see" || strings.HasPrefix(path, "see/")) && !slices.Contains(allowedInternal, path) {
				t.Errorf("%s imports %s, which is not on the benchmark's allowlist", f, path)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := specMetric{Name: "op_ms_p50", Better: "lower", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", shift(0), "unchanged"},
		{"slower", shift(20), "regressed"},
		{"faster", shift(-20), "improved"},
		{"noisy", []float64{50, 150, 60, 140, 100, 70, 130, 100, 90, 110}, "unresolved"},
	} {
		if got := verdict(base, c.b, lower); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(base, shift(20), specMetric{Name: "x", Better: "lower"}); got != "-" {
		t.Errorf("unbounded metric: verdict %s, want -", got)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range p50 {
			r := &result{Workload: "warm-slots", Seed: int64(i), Metrics: map[string]metric{"op_ms_p50": {Value: v, Unit: "ms"}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{1, 1.01, 0.99, 1, 1.02})
	b := write("b.jsonl", []float64{1.3, 1.31, 1.29, 1.3, 1.32})
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", a, b}, &out, &errOut); code != 1 {
		t.Fatalf("compare exited %d, want 1 (regressed); stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("compare output lacks a regressed row:\n%s", out.String())
	}
	if code := run([]string{"-compare", a, a}, &out, &errOut); code != 0 {
		t.Errorf("compare of a file with itself exited %d", code)
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "-x"},
		{"-compare", "only-one"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	for v, want := range map[string]bool{"0": false, "": false, "1": true, "spans.json": true} {
		if got, _, err := parseTrace(v); err != nil || got != want {
			t.Errorf("parseTrace(%q) = %v, %v", v, got, err)
		}
	}
}
