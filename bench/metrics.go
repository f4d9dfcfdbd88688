package main

import (
	"see/internal/sched"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions (the harness tests keep the two in step).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics an untraced run reports, on every workload.
// An op is one cold build of all six engines (cold-build), one comparison
// slot (warm-slots) or one server slot (serve-*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_tail", "ms", "lower"},
	{"established_per_slot", "conn/slot", "higher"},
	{"rss_mb_peak", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload does not exercise reports a count of 0.
var perLayer = []metricDef{
	{"topo.generate_ms", "ms", "lower"},
	{"oracle.bounds_ms", "ms", "lower"},
	{"graph.yen_ms", "ms", "lower"},
	{"segment.build_ms", "ms", "lower"},
	{"segment.candidates", "count", "lower"},
	{"flow.solve_ms", "ms", "lower"},
	{"flow.solve_ms_w1", "ms", "lower"},
	{"par.pricing_speedup", "x", "higher"},
	{"flow.rounds", "count", "lower"},
	{"flow.columns", "count", "lower"},
	{"flow.ms_per_round", "ms", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"reps.build_ms", "ms", "lower"},
	{"reps.provision_ms", "ms", "lower"},
	{"e2e.build_ms", "ms", "lower"},
	{"contend.build_ms", "ms", "lower"},
	{"greedy.build_ms", "ms", "lower"},
	{"oracle.build_ms", "ms", "lower"},
	{"warm.hits", "count", "higher"},
	{"warm.misses", "count", "lower"},
	{"slot.engine_ms_p50", "ms", "lower"},
	{"slot.engine_ms_p99", "ms", "lower"},
	{"slot.plan_ms", "ms", "lower"},
	{"slot.reserve_ms", "ms", "lower"},
	{"slot.physical_ms", "ms", "lower"},
	{"slot.stitch_ms", "ms", "lower"},
	{"op.self_ms_p50", "ms", "lower"},
	{"op.allocs", "allocs/op", "lower"},
	{"op.bytes", "B/op", "lower"},
	{"qnet.created_per_attempt", "fraction", "higher"},
	{"qnet.swap_success", "fraction", "higher"},
	{"qnet.established_per_assembled", "fraction", "higher"},
	{"state.withdrawn_per_slot", "seg/slot", "higher"},
	{"state.deposited_per_slot", "seg/slot", "higher"},
	{"state.decohered_per_slot", "seg/slot", "lower"},
	{"serve.served_per_slot", "req/slot", "higher"},
	{"serve.backlog_mean", "req", "lower"},
	{"serve.expired_per_slot", "req/slot", "lower"},
	{"serve.rejected_per_slot", "req/slot", "lower"},
	{"trace_overhead", "fraction", "lower"},
	{"host.kernel_ms", "ms", "lower"},
}

// fill turns computed values into metrics with the units of defs.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues derives the end-to-end metrics from the median set-up
// time (s), the op times (ms) and the time inside ops (s), all in one time
// base.
func endToEndValues(w *workload, setupS float64, opMs []float64, busyS float64, l *lane) map[string]float64 {
	return map[string]float64{
		"setup_s":              setupS,
		"ops_per_s":            ratio(float64(l.ops), busyS),
		"op_ms_p50":            quantile(opMs, 0.5),
		"op_ms_tail":           quantile(opMs, w.tail),
		"established_per_slot": ratio(float64(l.rec.established), float64(l.rec.slots)),
		"rss_mb_peak":          peakRSSMB(),
	}
}

// perLayerValues derives the per-layer metrics of a traced run: the
// construction layers from the probe, the slot and serving layers from the
// traced lane and its counting tracer, allocations and the tracing
// overhead from comparing the untraced lane. Timings are at the reference
// host speed; the instances' generation times, measured in set-up, are
// scaled by scale, the set-up phase's host speed.
func perLayerValues(insts []*instance, probes []*probeSample, bare, traced *lane, tr *sched.CountingTracer, scale float64) map[string]float64 {
	probeMed := func(f func(*probeSample) float64) float64 {
		xs := make([]float64, len(probes))
		for i, p := range probes {
			xs[i] = f(p)
		}
		return quantile(xs, 0.5)
	}
	var gen, bounds []float64
	for _, in := range insts {
		gen = append(gen, ms(in.genEnd.Sub(in.genStart))*scale)
		bounds = append(bounds, ms(in.boundsEnd.Sub(in.genEnd))*scale)
	}
	c := tr.Counts()
	slots := float64(c.Slots)
	rec := traced.rec
	v := map[string]float64{
		"topo.generate_ms":    quantile(gen, 0.5),
		"oracle.bounds_ms":    quantile(bounds, 0.5),
		"graph.yen_ms":        probeMed(func(p *probeSample) float64 { return p.yenMs }),
		"segment.build_ms":    probeMed(func(p *probeSample) float64 { return p.segmentMs }),
		"segment.candidates":  probeMed(func(p *probeSample) float64 { return p.candidates }),
		"flow.solve_ms":       probeMed(func(p *probeSample) float64 { return p.solveMs }),
		"flow.solve_ms_w1":    probeMed(func(p *probeSample) float64 { return p.solveW1Ms }),
		"par.pricing_speedup": probeMed(func(p *probeSample) float64 { return ratio(p.solveW1Ms, p.solveMs) }),
		"flow.rounds":         probeMed(func(p *probeSample) float64 { return p.rounds }),
		"flow.columns":        probeMed(func(p *probeSample) float64 { return p.columns }),
		"flow.ms_per_round":   probeMed(func(p *probeSample) float64 { return ratio(p.solveMs, p.rounds) }),
		"reps.provision_ms": probeMed(func(p *probeSample) float64 {
			return p.buildMs[sched.REPS] - p.linkSegmentMs
		}),
		"slot.engine_ms_p50":             quantile(rec.engineMs.xs, 0.5),
		"slot.engine_ms_p99":             quantile(rec.engineMs.xs, 0.99),
		"slot.plan_ms":                   tr.PhaseLatency(sched.PhasePlan).Mean * 1e3,
		"slot.reserve_ms":                tr.PhaseLatency(sched.PhaseReserve).Mean * 1e3,
		"slot.physical_ms":               tr.PhaseLatency(sched.PhasePhysical).Mean * 1e3,
		"slot.stitch_ms":                 tr.PhaseLatency(sched.PhaseStitch).Mean * 1e3,
		"op.self_ms_p50":                 quantile(traced.selfMs.xs, 0.5),
		"op.allocs":                      ratio(float64(bare.mallocs), float64(bare.ops)),
		"op.bytes":                       ratio(float64(bare.bytes), float64(bare.ops)),
		"qnet.created_per_attempt":       ratio(float64(c.SegmentsCreated), float64(c.AttemptsResolved)),
		"qnet.swap_success":              ratio(float64(c.SwapsSucceeded), float64(c.SwapsResolved)),
		"qnet.established_per_assembled": ratio(float64(c.ConnectionsEstablished), float64(c.ConnectionsAssembled)),
		"state.withdrawn_per_slot":       ratio(float64(c.IncidentCount(sched.IncidentBankWithdraw)), slots),
		"state.deposited_per_slot":       ratio(float64(c.IncidentCount(sched.IncidentBankDeposit)), slots),
		"state.decohered_per_slot":       ratio(float64(c.IncidentCount(sched.IncidentBankDecohered)), slots),
		"serve.served_per_slot":          ratio(float64(rec.served), float64(rec.serveSlots)),
		"serve.backlog_mean":             ratio(float64(rec.backlog), float64(rec.serveSlots)),
		"serve.expired_per_slot":         ratio(float64(rec.expired), float64(rec.serveSlots)),
		"serve.rejected_per_slot":        ratio(float64(rec.rejected), float64(rec.serveSlots)),
		"trace_overhead": 1 - ratio(ratio(float64(traced.ops), traced.busyMs),
			ratio(float64(bare.ops), bare.busyMs)),
	}
	for _, alg := range buildAlgs {
		v[layerName(alg)+".build_ms"] = probeMed(func(p *probeSample) float64 { return p.buildMs[alg] })
	}
	if cache := traced.env.cache; cache != nil {
		s := cache.Stats()
		v["warm.hits"] = float64(s.SetHits + s.SolveHits)
		v["warm.misses"] = float64(s.SetMisses + s.SolveMisses)
	}
	return v
}
