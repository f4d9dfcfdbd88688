package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"see/internal/engines"
	"see/internal/flow"
	"see/internal/graph"
	"see/internal/sched"
	"see/internal/segment"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 1 << 17

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share its request id; set-up spans have -1.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Req      int    `json:"req"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps a traced lane's spans in memory until the run ends. A nil
// log records nothing, so untraced lanes pay only the nil check.
type spanLog struct {
	workload string
	origin   time.Time
	spans    []span
	next     int
	dropped  int
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// reserve returns a span id, so children can name a parent recorded after
// them.
func (l *spanLog) reserve() int {
	if l == nil {
		return -1
	}
	l.next++
	return l.next - 1
}

func (l *spanLog) add(id int, name string, req, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{ID: id, Name: name, Workload: l.workload, Req: req, Parent: parent,
		StartNS: start.Sub(l.origin).Nanoseconds(), EndNS: end.Sub(l.origin).Nanoseconds()})
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{l.workload, l.dropped, l.spans})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// probeSample is what the construction probe measured on one instance.
type probeSample struct {
	yenMs, segmentMs, candidates        float64
	solveMs, solveW1Ms, rounds, columns float64
	buildMs                             map[sched.Algorithm]float64
	linkSegmentMs                       float64
}

// seeSegmentOptions are SEE's candidate-enumeration defaults (segment
// defaults with a 10-hop cap), so the probe times the segment.Build and
// flow.SolveCtx that engines.New(sched.SEE, ...) performs. The probe
// checks that by comparing the two objectives.
func seeSegmentOptions() segment.Options {
	o := segment.DefaultOptions()
	o.MaxSegmentHops = 10
	return o
}

// repsLinkOptions are REPS's link-only enumeration options; REPS's build
// minus this segment.Build is its provisioning time.
func repsLinkOptions() segment.Options {
	o := segment.DefaultOptions()
	o.MaxSegmentHops = 1
	o.MinProb = 0
	return o
}

// probe times each construction layer's entry point on one instance, from
// outside the program: Yen over the pairs, SEE's segment.Build and its
// flow.SolveCtx at the default worker count and at one worker, and a cold
// engines.New of each engine. It fails if SEE's UpperBound differs from
// the directly solved objective, or if the worker counts disagree. toMs
// converts each measured time to the ms it reports.
func probe(ctx context.Context, inst *instance, spans *spanLog, toMs func(time.Duration) float64) (*probeSample, error) {
	p := &probeSample{buildMs: map[sched.Algorithm]float64{}}
	root := spans.reserve()
	rootStart := time.Now()
	// timed runs f as one span under the probe's root and returns its time.
	timed := func(name string, f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		spans.add(spans.reserve(), name, -1, root, t0, t1)
		return toMs(t1.Sub(t0)), err
	}
	p.yenMs, _ = timed("graph.yen", func() error {
		for _, sd := range inst.pairs {
			graph.YenKShortest(inst.net.G, sd.S, sd.D, 5, graph.DijkstraOptions{})
		}
		return nil
	})
	var set *segment.Set
	var sol, solW1 *flow.Solution
	var err error
	if p.segmentMs, err = timed("segment.build", func() (e error) {
		set, e = segment.Build(inst.net, inst.pairs, seeSegmentOptions())
		return e
	}); err != nil {
		return nil, err
	}
	if p.solveMs, err = timed("flow.solve", func() (e error) {
		sol, e = flow.SolveCtx(ctx, set, flow.Options{SwapWeightedObjective: true})
		return e
	}); err != nil {
		return nil, err
	}
	if p.solveW1Ms, err = timed("flow.solve.w1", func() (e error) {
		solW1, e = flow.SolveCtx(ctx, set, flow.Options{SwapWeightedObjective: true, Workers: 1})
		return e
	}); err != nil {
		return nil, err
	}
	if sol.Objective != solW1.Objective || sol.Rounds != solW1.Rounds {
		return nil, fmt.Errorf("flow.SolveCtx differs across worker counts: %v in %d rounds vs %v in %d",
			sol.Objective, sol.Rounds, solW1.Objective, solW1.Rounds)
	}
	p.candidates, p.rounds, p.columns = float64(set.NumCandidates()), float64(sol.Rounds), float64(sol.Columns)
	if p.linkSegmentMs, err = timed("segment.build.links", func() (e error) {
		_, e = segment.Build(inst.net, inst.pairs, repsLinkOptions())
		return e
	}); err != nil {
		return nil, err
	}
	for _, alg := range buildAlgs {
		var eng sched.Engine
		if p.buildMs[alg], err = timed("engines.build/"+layerName(alg), func() (e error) {
			eng, e = engines.New(alg, inst.net, inst.pairs, engines.Config{})
			return e
		}); err != nil {
			return nil, fmt.Errorf("building %v: %w", alg, err)
		}
		if alg == sched.SEE && eng.UpperBound() != sol.Objective {
			return nil, fmt.Errorf("SEE UpperBound %v differs from the directly solved objective %v", eng.UpperBound(), sol.Objective)
		}
	}
	spans.add(root, "probe", -1, -1, rootStart, time.Now())
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
