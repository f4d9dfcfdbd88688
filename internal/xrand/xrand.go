// Package xrand provides deterministic random-number utilities shared by the
// simulator. Every stochastic component of the system receives an explicit
// *rand.Rand so that trials are reproducible from a single base seed.
package xrand

import "math/rand"

// New returns a new deterministic generator for the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives an independent generator from rng. The derived stream is a
// pure function of rng's current state, so a fixed seeding order yields a
// fixed set of streams. Use it to give subsystems (topology generation,
// physical-phase sampling, rounding) their own streams so that adding draws
// to one subsystem does not perturb the others.
func Split(rng *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(rng.Int63()))
}

// ForTrial derives the canonical per-trial generator: trial t of an
// experiment with base seed s is always seeded identically, regardless of
// how many trials run or in which order. NewStream(TrialSeed(s, t)) is
// the position-tracking variant used by checkpointing layers.
func ForTrial(baseSeed int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(baseSeed, trial)))
}

// Bernoulli returns true with probability p. Probabilities outside [0, 1]
// are clamped.
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// WeightedIndex draws an index proportionally to the non-negative weights.
// It returns -1 when the total weight is zero or the slice is empty.
func WeightedIndex(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
