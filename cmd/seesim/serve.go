package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"see"
	"see/internal/engines"
	"see/internal/experiment"
	"see/internal/topo"
	"see/internal/xrand"
)

// serveParams carries the parsed service-mode configuration into runServe.
type serveParams struct {
	// Params holds the instance, the schedulers, the slot horizon, the
	// seed and every scheduler's options (serveOne sets the Tracer);
	// Trials is unused.
	experiment.Params
	topoName  string
	traffic   string
	trace     bool
	jsonl     *see.JSONLTracer
	arrivals  string
	ckptDir   string
	ckptEvery int
	resume    bool
	dieAt     int
}

// errDied is the sentinel the -die-at crash simulation stops a run with.
var errDied = errors.New("seesim: -die-at reached")

// runServe is service mode: one long-lived instance per scheduler, driven
// by an arrival-generated request workload, with optional checkpoint/resume.
// All output is deterministic in the flags, so an interrupted-and-resumed
// run's slot lines can be diffed against an uninterrupted run's.
func runServe(p serveParams, stdout, stderr io.Writer) int {
	if p.resume && p.ckptDir == "" {
		fmt.Fprintln(stderr, "seesim: -resume requires -ckpt-dir")
		return 2
	}
	if p.ckptDir != "" && p.ckptEvery <= 0 {
		fmt.Fprintf(stderr, "seesim: -ckpt-every must be positive, got %d\n", p.ckptEvery)
		return 2
	}
	// serveOne parses the spec again for each scheduler (every server needs
	// its own arrival process); checking it here rejects a bad spec before
	// any output.
	if _, err := see.ParseArrivalSpec(p.arrivals); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if p.ckptDir != "" {
		if err := os.MkdirAll(p.ckptDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	// One instance, drawn from the seed like see.GenerateNetwork's, serves
	// the run, so one warm cache does too: the schedulers share their
	// candidate sets and LP solutions.
	net, sdPairs, err := p.Instance(xrand.New(p.BaseSeed))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	p.Warm = see.NewWarmCache()

	fmt.Fprintf(stdout, "# serve topo=%s traffic=%s pairs=%d slots=%d seed=%d arrivals=%q\n",
		strings.ToLower(p.topoName), strings.ToLower(p.traffic), len(sdPairs), p.Slots, p.BaseSeed, p.arrivals)

	for _, a := range p.Algorithms {
		if code := p.serveOne(a, net, sdPairs, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// serveOne runs (or resumes) one scheduler's traffic server to the slot
// horizon.
func (p serveParams) serveOne(a see.Algorithm, net *topo.Network, sdPairs []see.SDPair, stdout, stderr io.Writer) int {
	tracer := see.NewCountingTracer()
	ts := []see.Tracer{tracer}
	if p.jsonl != nil {
		ts = append(ts, p.jsonl)
	}
	opts := p.Config
	opts.Tracer = see.MultiTracer(ts...)
	sc, err := engines.New(a, net, sdPairs, opts)
	if err != nil {
		fmt.Fprintf(stderr, "%v: %v\n", a, err)
		return 1
	}
	scfg, err := see.ParseArrivalSpec(p.arrivals)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	scfg.Seed = p.BaseSeed
	scfg.Tracer = tracer
	srv, err := see.NewTrafficServer(sc, len(sdPairs), scfg)
	if err != nil {
		fmt.Fprintf(stderr, "%v: %v\n", a, err)
		return 1
	}

	ckptPath := ""
	if p.ckptDir != "" {
		ckptPath = filepath.Join(p.ckptDir, strings.ToLower(a.String())+".ckpt")
	}
	if p.resume {
		// A crashed multi-scheduler run may have died before later
		// schedulers ever checkpointed; those start from slot 0.
		if _, err := os.Stat(ckptPath); os.IsNotExist(err) {
			fmt.Fprintf(stdout, "# resume %v: no checkpoint, starting at slot 0\n", a)
		} else if err := srv.ResumeFrom(ckptPath, p.Slots); err != nil {
			fmt.Fprintf(stderr, "%v: resume: %v\n", a, err)
			return 1
		} else {
			fmt.Fprintf(stdout, "# resume %v at slot %d\n", a, srv.Slot())
		}
	}

	died := false
	err = srv.Run(p.Slots-srv.Slot(), func(st *see.ServeSlotStats) error {
		fmt.Fprintf(stdout, "slot %v %d arrived=%d admitted=%d rejected=%d expired=%d served=%d established=%d backlog=%d\n",
			a, st.Slot, st.Arrived, st.Admitted, st.Rejected, st.Expired, st.Served, st.Established, st.Backlog)
		if ckptPath != "" && (st.Slot+1)%p.ckptEvery == 0 && st.Slot+1 < p.Slots {
			if err := srv.WriteCheckpoint(ckptPath); err != nil {
				return err
			}
		}
		if p.dieAt >= 0 && st.Slot >= p.dieAt {
			died = true
			return errDied
		}
		return nil
	})
	if died {
		fmt.Fprintf(stderr, "%v: dying after slot %d (-die-at)\n", a, p.dieAt)
		return 3
	}
	if err != nil {
		fmt.Fprintf(stderr, "%v: %v\n", a, err)
		return 1
	}
	if ckptPath != "" {
		if err := srv.WriteCheckpoint(ckptPath); err != nil {
			fmt.Fprintf(stderr, "%v: checkpoint: %v\n", a, err)
			return 1
		}
	}

	reportServe(stdout, a, srv.Report(), p.trace, tracer)
	return 0
}

// reportServe prints one scheduler's service summary: throughput and
// fairness side by side, then the per-class lifecycle.
func reportServe(w io.Writer, a see.Algorithm, r *see.ServeReport, trace bool, tracer *see.CountingTracer) {
	fmt.Fprintf(w, "# %v service summary (%d slots)\n", a, r.Slots)
	fmt.Fprintf(w, "%-7v served=%d/%d throughput=%.3f fairness=%.3f established=%d rejected=%d expired=%d backlog=%d",
		a, r.Served, r.Arrived, r.Throughput, r.Fairness, r.Established, r.Rejected, r.Expired, r.Backlog)
	// Floor rejections print only when any happened, so floor-less service
	// summaries stay byte-identical to the pre-floor format.
	if r.FloorRejected > 0 {
		fmt.Fprintf(w, " floor_rejected=%d", r.FloorRejected)
	}
	fmt.Fprintln(w)
	classes := []string{"gold", "silver", "bronze"}
	for c, name := range classes {
		cr := r.PerClass[c]
		fmt.Fprintf(w, "class %-7s served=%d/%d rate=%.3f expired=%d rejected=%d latency=%.2f\n",
			name, cr.Served, cr.Arrived, cr.ServiceRate, cr.Expired, cr.Rejected, cr.MeanLatency)
	}
	if trace {
		fmt.Fprintf(w, "\n# %v pipeline\n%s\n", a, tracer)
	}
}
