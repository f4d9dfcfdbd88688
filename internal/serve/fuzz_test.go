package serve

import (
	"math"
	"testing"
)

// FuzzParseArrivals checks the arrival-spec parser on arbitrary input: it
// must never panic, and any spec it accepts must have a finite class mix
// summing to 1, deadlines of at least one slot, and finite process
// parameters within the ranges ParseSpec documents.
func FuzzParseArrivals(f *testing.F) {
	for _, seed := range []string{
		"poisson",
		"poisson;rate=3;users=200;mix=1/1/2;deadline=2/4/8;max-active=64",
		"diurnal;rate=2;amp=0.8;period=50",
		"bursty;rate=1;burst-rate=8;switch=0.2",
		"diurnal;amp=NaN",
		"bursty;switch=NaN",
		"poisson;mix=inf/0/0",
		"poisson;mix=1e308/1e308/1e308",
		"poisson;mix=5e-324/0/0",
		"poisson;deadline=1e300/1/1",
		"poisson;deadline=inf/1/1",
		"poisson;rate=+Inf",
		"bursty;burst-rate=NaN",
		";;",
		"poisson;rate",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		sum := 0.0
		for c, v := range cfg.Mix {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%q: mix[%d] = %v", spec, c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%q: mix %v sums to %v", spec, cfg.Mix, sum)
		}
		for c, d := range cfg.Deadline {
			if d < 1 || d > maxDeadline {
				t.Fatalf("%q: deadline[%d] = %d", spec, c, d)
			}
		}
		if cfg.Users < 1 || cfg.MaxActive < 0 {
			t.Fatalf("%q: users=%d max-active=%d", spec, cfg.Users, cfg.MaxActive)
		}
		rate := func(name string, r float64) {
			if !(r > 0 && r <= maxRate) {
				t.Fatalf("%q: %s = %v outside (0,%v]", spec, name, r, maxRate)
			}
		}
		switch p := cfg.Process.(type) {
		case *Poisson:
			rate("rate", p.Rate)
		case *Diurnal:
			rate("rate", p.Base)
			if !(p.Amp >= 0 && p.Amp <= 1) || p.Period < 2 {
				t.Fatalf("%q: diurnal %+v", spec, p)
			}
		case *Bursty:
			rate("rate", p.Calm)
			rate("burst-rate", p.Burst)
			if p.Burst < p.Calm || !(p.Switch > 0 && p.Switch <= 1) {
				t.Fatalf("%q: bursty %+v", spec, p)
			}
		default:
			t.Fatalf("%q: accepted with process %v", spec, cfg.Process)
		}
	})
}
