package engines

import (
	"math"
	"strings"
	"testing"

	"see/internal/sched"
	"see/internal/topo"
	"see/internal/xrand"
)

// TestTracerReconciliation runs every engine on the motivation fixture and
// checks that the phase events observed by a CountingTracer reconcile with
// the SlotResult the engine returns: reservation counts sum to Attempts,
// every attempt is resolved exactly once, created=true events equal
// SegmentsCreated, and assembly events match Assembled/Established.
func TestTracerReconciliation(t *testing.T) {
	for _, alg := range sched.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			net, pairs := topo.Motivation()
			tr := sched.NewCountingTracer()
			eng, err := New(alg, net, pairs, Config{Tracer: tr})
			if err != nil {
				t.Fatalf("New(%v): %v", alg, err)
			}
			if got := eng.Algorithm(); got != alg {
				t.Fatalf("Algorithm() = %v, want %v", got, alg)
			}
			const slots = 20
			rng := xrand.New(7)
			var total sched.SlotResult
			for s := 0; s < slots; s++ {
				res, err := eng.RunSlot(rng)
				if err != nil {
					t.Fatalf("RunSlot: %v", err)
				}
				total.PlannedPaths += res.PlannedPaths
				total.ProvisionedPaths += res.ProvisionedPaths
				total.Attempts += res.Attempts
				total.SegmentsCreated += res.SegmentsCreated
				total.Assembled += res.Assembled
				total.Established += res.Established
			}
			c := tr.Counts()
			if c.Slots != slots {
				t.Errorf("Slots = %d, want %d", c.Slots, slots)
			}
			if c.PathsPlanned != total.PlannedPaths {
				t.Errorf("PathsPlanned = %d, want %d", c.PathsPlanned, total.PlannedPaths)
			}
			if c.PathsProvisioned != total.ProvisionedPaths {
				t.Errorf("PathsProvisioned = %d, want %d", c.PathsProvisioned, total.ProvisionedPaths)
			}
			if c.AttemptsReserved != total.Attempts {
				t.Errorf("AttemptsReserved = %d, want SlotResult.Attempts %d", c.AttemptsReserved, total.Attempts)
			}
			if c.AttemptsResolved != total.Attempts {
				t.Errorf("AttemptsResolved = %d, want SlotResult.Attempts %d", c.AttemptsResolved, total.Attempts)
			}
			if c.SegmentsCreated != total.SegmentsCreated {
				t.Errorf("SegmentsCreated = %d, want %d", c.SegmentsCreated, total.SegmentsCreated)
			}
			if c.SegmentsCreated+c.AttemptsFailed != c.AttemptsResolved {
				t.Errorf("created %d + failed %d != resolved %d",
					c.SegmentsCreated, c.AttemptsFailed, c.AttemptsResolved)
			}
			if c.ConnectionsAssembled != total.Assembled {
				t.Errorf("ConnectionsAssembled = %d, want SlotResult.Assembled %d", c.ConnectionsAssembled, total.Assembled)
			}
			if c.ConnectionsEstablished != total.Established {
				t.Errorf("ConnectionsEstablished = %d, want SlotResult.Established %d", c.ConnectionsEstablished, total.Established)
			}
			if c.Established != total.Established {
				t.Errorf("Established = %d, want %d", c.Established, total.Established)
			}
			// The motivation fixture is tiny but active: a working pipeline
			// must reserve attempts and resolve swaps somewhere in 20 slots.
			if c.AttemptsResolved == 0 {
				t.Error("no physical attempts observed")
			}
			if alg != sched.E2E && c.SwapsResolved == 0 {
				t.Errorf("%v: no swaps observed over %d slots", alg, slots)
			}
			for ph := sched.Phase(0); ph < sched.NumPhases; ph++ {
				if alg == sched.REPS && ph == sched.PhasePlan {
					continue // REPS plans links at construction, not per slot
				}
				if s := tr.PhaseLatency(ph); s.N == 0 {
					t.Errorf("no %v latency samples", ph)
				}
			}
		})
	}
}

// TestDeterminismWithTracer checks that attaching a tracer does not change
// an engine's randomness consumption: the same seed must yield the same
// result with and without instrumentation.
func TestDeterminismWithTracer(t *testing.T) {
	for _, alg := range sched.Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			net, pairs := topo.Motivation()
			run := func(cfg Config) []int {
				eng, err := New(alg, net, pairs, cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				rng := xrand.New(99)
				var out []int
				for s := 0; s < 10; s++ {
					res, err := eng.RunSlot(rng)
					if err != nil {
						t.Fatalf("RunSlot: %v", err)
					}
					out = append(out, res.Established, res.SegmentsCreated, res.Attempts)
				}
				return out
			}
			plain := run(Config{})
			traced := run(Config{Tracer: sched.NewCountingTracer()})
			for i := range plain {
				if plain[i] != traced[i] {
					t.Fatalf("traced run diverged at %d: %v vs %v", i, plain, traced)
				}
			}
		})
	}
}

// TestUnknownAlgorithm ensures the factory rejects schemes it cannot build.
func TestUnknownAlgorithm(t *testing.T) {
	net, pairs := topo.Motivation()
	if _, err := New(sched.Algorithm(42), net, pairs, Config{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := New(sched.SEE, nil, pairs, Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
}

// TestValidateRejectsBadFloats pins Validate's float rules: MinSegmentProb
// must lie in [0,1], and the carry retention and substitution threshold
// must be finite and non-negative. Retention 0 or ≥ 1 stays valid: both
// disable decay (state.Policy.WernerRetention).
func TestValidateRejectsBadFloats(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"prob NaN", Config{MinSegmentProb: nan}, "MinSegmentProb"},
		{"prob negative", Config{MinSegmentProb: -0.1}, "MinSegmentProb"},
		{"prob above one", Config{MinSegmentProb: 1.5}, "MinSegmentProb"},
		{"prob +Inf", Config{MinSegmentProb: inf}, "MinSegmentProb"},
		{"retention NaN", Config{CarryWernerRetention: nan}, "CarryWernerRetention"},
		{"retention +Inf", Config{CarryWernerRetention: inf}, "CarryWernerRetention"},
		{"retention -Inf", Config{CarryWernerRetention: -inf}, "CarryWernerRetention"},
		{"retention negative", Config{CarryWernerRetention: -0.5}, "CarryWernerRetention"},
		{"min scale NaN", Config{CarryMinWernerScale: nan}, "CarryMinWernerScale"},
		{"min scale +Inf", Config{CarryMinWernerScale: inf}, "CarryMinWernerScale"},
		{"min scale -Inf", Config{CarryMinWernerScale: -inf}, "CarryMinWernerScale"},
		{"min scale negative", Config{CarryMinWernerScale: -3}, "CarryMinWernerScale"},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
	for _, cfg := range []Config{
		{},
		{MinSegmentProb: 0.05},
		{MinSegmentProb: 1},
		{CarryOver: true, CarryWernerRetention: 0.9, CarryMinWernerScale: 0.5},
		{CarryOver: true, CarryWernerRetention: 1},
		{CarryOver: true, CarryWernerRetention: 2, CarryMinWernerScale: 1},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	net, pairs := topo.Motivation()
	if _, err := New(sched.SEE, net, pairs, Config{CarryOver: true, CarryWernerRetention: nan}); err == nil {
		t.Error("New accepted a NaN carry retention")
	}
}
