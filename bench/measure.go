package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"see/internal/sched"
)

// options configure one workload run.
type options struct {
	w         *workload
	seed      int64
	seconds   float64
	traced    bool
	spansPath string
	outPath   string
	scale     scale
	// wrap, when non-nil, wraps every engine that runs slots (the harness
	// tests use it to break an engine on purpose).
	wrap func(sched.Engine) sched.Engine
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. The result line printed last carries only
// Correct, Attempted, Failed and Metrics; -out records carry the rest.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Digest hashes the per-slot PerPair vectors of the first rotation's
	// PrefixOps ops, over which PrefixSlots slots established PrefixEstablished
	// connections; all three repeat exactly for a seed.
	Digest            string   `json:"digest"`
	PrefixOps         int      `json:"prefix_ops"`
	PrefixSlots       int      `json:"prefix_slots"`
	PrefixEstablished int      `json:"prefix_established"`
	Failures          []string `json:"failures,omitempty"`
	// Metrics hold every timing at the reference host speed. RawMetrics
	// (untraced runs) hold the end-to-end timings as measured, and
	// HostKernelMs is the run's median reference-kernel time.
	RawMetrics   map[string]metric `json:"raw_metrics"`
	HostKernelMs float64           `json:"host_kernel_ms"`
	GoVersion    string            `json:"go_version"`
	NumCPU       int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
}

//go:embed digests.json
var digestFile embed.FS

// recordedDigests returns the digests recorded at the default seed and
// full scale, by workload.
func recordedDigests() (map[string]string, error) {
	data, err := digestFile.ReadFile("digests.json")
	if err != nil {
		return nil, err
	}
	var d map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// lane is one sequence of ops. An untraced run has one lane; a traced run
// alternates an untraced and a traced lane over the same inputs, so the
// tracing overhead and the equality of their counts are measured in one
// process.
type lane struct {
	lanePlan
	env *laneEnv
	rec *recorder
	// Each op's time, and its time outside engine calls, at the reference
	// host speed; rawMs holds the op times as measured (the two samples
	// take the same positions, since their reservoirs draw alike).
	latMs, selfMs, rawMs sample
	busyMs               float64 // time inside ops, at the reference speed
	rawBusy              time.Duration
	// pending holds the raw times (ms) of the ops since the last host-speed
	// sample; the next sample scales them.
	pending []float64
	ops     int
	failed  int
	// Allocation deltas over the lane's blocks, which also cover the
	// checks between ops.
	mallocs, bytes uint64
}

func (l *lane) step(hs *hostSpeed) {
	l.rec.op, l.rec.opFailed = l.ops, false
	t, err := l.op(l.ops, l.rec)
	if err != nil {
		l.rec.fail("%v", err)
	} else {
		l.rawBusy += t.total
		l.rawMs.add(ms(t.total))
		l.pending = append(l.pending, ms(t.total))
		l.selfMs.add(hs.adjust(t.total - t.engine))
	}
	if l.rec.opFailed {
		l.failed++
	}
	l.ops++
}

// flush scales the pending op times to the reference host speed.
func (l *lane) flush(scale float64) {
	for _, x := range l.pending {
		l.busyMs += x * scale
		l.latMs.add(x * scale)
	}
	l.pending = l.pending[:0]
}

// setupKernelSamples is how many host-speed samples precede each set-up
// and follow the last.
const setupKernelSamples = 3

// laneSlice is how long a traced run stays on one lane before switching.
const laneSlice = 100 * time.Millisecond

// hardStop ends a run whose rotation cannot complete in time.
const hardStop = 150 * time.Second

// block runs ops until until has passed; once past the deadline it keeps
// going to the end of the lane's rotation. Between ops it calls sample when
// a host-speed sample is due.
func (l *lane) block(until, deadline, stop time.Time, hs *hostSpeed, sample func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for {
		l.step(hs)
		now := time.Now()
		if hs.due(now) {
			sample()
			now = time.Now()
		}
		if now.After(stop) || now.After(until) && (until.Before(deadline) || l.ops%l.rotation == 0) {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	l.mallocs += m1.Mallocs - m0.Mallocs
	l.bytes += m1.TotalAlloc - m0.TotalAlloc
}

// measure runs the lanes in turn for the given time; each then finishes
// its rotation, so every instance or server has had the same share.
func measure(lanes []*lane, seconds float64, hs *hostSpeed) error {
	sample := func() {
		hs.sample()
		for _, l := range lanes {
			l.flush(hs.scale)
		}
	}
	defer sample()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	stop := start.Add(hardStop)
	slice := laneSlice
	if len(lanes) == 1 {
		slice = deadline.Sub(start)
	}
	for {
		for _, l := range lanes {
			until := time.Now().Add(slice)
			if until.After(deadline) {
				until = deadline
			}
			l.block(until, deadline, stop, hs, sample)
		}
		now := time.Now()
		done := !now.Before(deadline)
		for _, l := range lanes {
			done = done && l.ops > 0 && l.ops%l.rotation == 0
		}
		if done {
			return nil
		}
		if now.After(stop) {
			return fmt.Errorf("stopped after %v inside a rotation", hardStop)
		}
	}
}

// runWorkload sets the workload up, measures it and checks its outputs.
func runWorkload(o options, stderr io.Writer) (*result, error) {
	sc := o.scale
	wrap := o.wrap
	if wrap == nil {
		wrap = func(e sched.Engine) sched.Engine { return e }
	}
	newEnv := func(insts []*instance) *laneEnv {
		return &laneEnv{sc: &sc, seed: o.seed, insts: insts, wrap: wrap}
	}

	// Set-up runs several times; setup_s is the median and the last
	// repetition's inputs and lane are measured. Each repetition starts on
	// a collected heap, so it does not pay for collecting the previous one.
	// Set-up times are scaled by the median of all kernel samples taken
	// around them, not by the three nearest: samples right after a
	// collection or a set-up often read 30–50% slow.
	hs := newHostSpeed()
	var rawSetupS []float64
	var insts []*instance
	var bare *lane
	for range max(sc.setupReps, 1) {
		insts, bare = nil, nil
		runtime.GC()
		for range setupKernelSamples {
			hs.sample()
		}
		t0 := time.Now()
		in, err := o.w.gen(&sc)
		if err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		env := newEnv(in)
		plan, err := o.w.build(env)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rawSetupS = append(rawSetupS, time.Since(t0).Seconds())
		insts, bare = in, &lane{lanePlan: plan, env: env, rec: newRecorder(plan.rotation, hs)}
	}
	for range setupKernelSamples {
		hs.sample()
	}
	setupScale := refKernelMs / hs.kernelMs()
	rawSetup := quantile(rawSetupS, 0.5)
	lanes := []*lane{bare}

	var traced *lane
	var tracer *sched.CountingTracer
	var spans *spanLog
	var probes []*probeSample
	var probeFailures []string
	if o.traced {
		tracer, spans = sched.NewCountingTracer(), newSpanLog(o.w.name)
		for _, in := range insts {
			spans.add(spans.reserve(), "topo.generate", -1, -1, in.genStart, in.genEnd)
			spans.add(spans.reserve(), "oracle.bounds", -1, -1, in.genEnd, in.boundsEnd)
		}
		env := newEnv(insts)
		env.tracer, env.spans = tracer, spans
		plan, err := o.w.build(env)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		traced = &lane{lanePlan: plan, env: env, rec: newRecorder(plan.rotation, hs)}
		lanes = append(lanes, traced)
		for _, in := range insts[:min(sc.probeInst, len(insts))] {
			p, err := probe(context.Background(), in, spans, hs.adjust)
			if err != nil {
				probeFailures = append(probeFailures, fmt.Sprintf("construction probe: %v", err))
				continue
			}
			probes = append(probes, p)
		}
	}

	var warmMisses uint64
	if c := bare.env.cache; c != nil {
		s := c.Stats()
		warmMisses = s.SetMisses + s.SolveMisses
	}
	runtime.GC()
	runErr := measure(lanes, o.seconds, hs)

	res := &result{
		Workload: o.w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Digest: bare.rec.sum(), PrefixOps: bare.rotation,
		PrefixSlots: bare.rec.prefixSlots, PrefixEstablished: bare.rec.prefixEstablished,
		HostKernelMs: hs.kernelMs(),
		GoVersion:    runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	runFail := func(format string, args ...any) {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	for _, l := range lanes {
		res.Attempted += l.ops
		res.Failed += l.failed
		res.Failures = append(res.Failures, l.rec.messages...)
	}
	if runErr != nil {
		runFail("%v", runErr)
	}
	for _, f := range probeFailures {
		runFail("%s", f)
	}
	if c := bare.env.cache; c != nil {
		s := c.Stats()
		if d := s.SetMisses + s.SolveMisses - warmMisses; d != 0 {
			runFail("%d warm-cache misses during the measured phase, want 0", d)
		}
	}
	if traced != nil && (traced.rec.sum() != bare.rec.sum() || traced.rec.prefixEstablished != bare.rec.prefixEstablished) {
		runFail("traced lane digest %s (%d established) differs from the untraced %s (%d)",
			traced.rec.sum(), traced.rec.prefixEstablished, bare.rec.sum(), bare.rec.prefixEstablished)
	}
	if o.seed == defaultSeed && o.scale == fullScale {
		want, err := recordedDigests()
		if err != nil {
			return nil, err
		}
		if d, ok := want[o.w.name]; !ok {
			fmt.Fprintf(stderr, "bench: no digest recorded for %s; this run's is %s\n", o.w.name, res.Digest)
		} else if d != res.Digest {
			runFail("digest %s differs from the recorded %s", res.Digest, d)
		}
	}
	res.Correct = res.Failed == 0

	if o.traced {
		values := perLayerValues(insts, probes, bare, traced, tracer, setupScale)
		values["host.kernel_ms"] = hs.kernelMs()
		res.Metrics = fill(perLayer, values)
		if o.spansPath != "" {
			if err := spans.write(o.spansPath); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	res.Metrics = fill(endToEnd, endToEndValues(o.w, rawSetup*setupScale, bare.latMs.xs, bare.busyMs/1e3, bare))
	res.RawMetrics = fill(endToEnd, endToEndValues(o.w, rawSetup, bare.rawMs.xs, bare.rawBusy.Seconds(), bare))
	return res, nil
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sampleCap bounds the values a sample keeps.
const sampleCap = 1 << 16

// sample keeps a uniform sample of at most sampleCap values (reservoir
// sampling with its own fixed-seed generator), so a run's memory does not
// grow with its op count and rss_mb_peak measures the program, not the
// harness.
type sample struct {
	xs  []float64
	n   int
	rng *rand.Rand
}

func (s *sample) add(x float64) {
	s.n++
	if len(s.xs) < sampleCap {
		s.xs = append(s.xs, x)
		return
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	if j := s.rng.Intn(s.n); j < sampleCap {
		s.xs[j] = x
	}
}

// quantile returns the q-quantile of xs, interpolating between the closest
// ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// printResult prints every metric by name and unit, the run's digest and
// failures, and the result line last.
func printResult(w io.Writer, r *result) {
	kind, defs := "end-to-end", endToEnd
	if r.Traced {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s metrics (%s, GOMAXPROCS=%d)\n", r.Workload, r.Seed, r.Seconds, kind, r.GoVersion, r.GOMAXPROCS)
	fmt.Fprintf(w, "# timings at the reference host speed (kernel median %.4g ms here, %.4g ms reference); raw values last\n", r.HostKernelMs, refKernelMs)
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "%-34s %14.6g %-10s", d.name, m.Value, m.Unit)
		if raw, ok := r.RawMetrics[d.name]; ok {
			fmt.Fprintf(w, " %14.6g", raw.Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# digest %s over %d ops: %d slots, %d established\n", r.Digest, r.PrefixOps, r.PrefixSlots, r.PrefixEstablished)
	fmt.Fprintf(w, "# attempted %d ops, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	printLine(w, resultLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printLine(w io.Writer, l resultLine) {
	line, _ := json.Marshal(l)
	fmt.Fprintln(w, string(line))
}

// appendRecord appends the run's full record to a JSON-lines file.
func appendRecord(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
