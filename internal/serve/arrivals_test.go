package serve

import (
	"math"
	"strings"
	"testing"

	"see/internal/xrand"
)

func TestParseSpecDefaults(t *testing.T) {
	cfg, err := ParseSpec("poisson")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := cfg.Process.(*Poisson)
	if !ok || p.Rate != 1 {
		t.Fatalf("process = %v", cfg.Process)
	}
	if cfg.Users != 100 || cfg.MaxActive != 0 {
		t.Errorf("users=%d max-active=%d", cfg.Users, cfg.MaxActive)
	}
	if cfg.Deadline != [NumClasses]int{4, 8, 16} {
		t.Errorf("deadline = %v", cfg.Deadline)
	}
	if math.Abs(cfg.Mix[Gold]-0.2) > 1e-12 || math.Abs(cfg.Mix[Bronze]-0.5) > 1e-12 {
		t.Errorf("mix = %v", cfg.Mix)
	}
}

func TestParseSpecFull(t *testing.T) {
	cfg, err := ParseSpec("poisson;rate=3;users=200;mix=1/1/2;deadline=2/4/8;max-active=64")
	if err != nil {
		t.Fatal(err)
	}
	if p := cfg.Process.(*Poisson); p.Rate != 3 {
		t.Errorf("rate = %v", p.Rate)
	}
	if cfg.Users != 200 || cfg.MaxActive != 64 {
		t.Errorf("users=%d max-active=%d", cfg.Users, cfg.MaxActive)
	}
	if cfg.Mix != [NumClasses]float64{0.25, 0.25, 0.5} {
		t.Errorf("mix = %v", cfg.Mix)
	}
	if cfg.Deadline != [NumClasses]int{2, 4, 8} {
		t.Errorf("deadline = %v", cfg.Deadline)
	}
}

func TestParseSpecProcesses(t *testing.T) {
	cfg, err := ParseSpec("diurnal;rate=2;amp=0.8;period=50")
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Process.(*Diurnal)
	if d.Base != 2 || d.Amp != 0.8 || d.Period != 50 {
		t.Errorf("diurnal = %+v", d)
	}

	cfg, err = ParseSpec("bursty;rate=1.5")
	if err != nil {
		t.Fatal(err)
	}
	b := cfg.Process.(*Bursty)
	if b.Calm != 1.5 || b.Burst != 7.5 || b.Switch != 0.1 {
		t.Errorf("bursty defaults = %+v", b)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"mmpp",
		"poisson;rate=0",
		"poisson;rate=-2",
		"poisson;rate=9999",
		"poisson;rate",
		"poisson;users=0",
		"poisson;users=1048577",
		"poisson;users=4611686018427387904",
		"poisson;max-active=-1",
		"poisson;mix=1/2",
		"poisson;mix=0/0/0",
		"poisson;mix=-1/2/2",
		"poisson;deadline=0/1/1",
		"poisson;deadline=1.5/2/3",
		"poisson;frobnicate=1",
		"diurnal;amp=1.5",
		"diurnal;period=1",
		"diurnal;rate=500;amp=1;period=4",
		"diurnal;rate=251;amp=1",
		"diurnal;rate=400;amp=0.5",
		"bursty;switch=0",
		"bursty;rate=4;burst-rate=2",
		"diurnal;amp=NaN",
		"bursty;switch=NaN",
		"poisson;mix=inf/0/0",
		"poisson;mix=NaN/1/1",
		"poisson;mix=1e308/1e308/1e308",
		"poisson;deadline=1e300/1/1",
		"poisson;deadline=inf/1/1",
		"poisson;deadline=2147483648/1/1",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// A diurnal peak rate·(1+amp) may reach maxRate but not pass it.
	if _, err := ParseSpec("diurnal;rate=250;amp=1;period=4"); err != nil {
		t.Errorf("diurnal peak of exactly %v rejected: %v", maxRate, err)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := xrand.New(7)
	p := &Poisson{Rate: 3}
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += p.Arrivals(rng, i)
	}
	mean := float64(sum) / n
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("poisson(3) sample mean %v", mean)
	}
}

func TestDiurnalRate(t *testing.T) {
	d := &Diurnal{Base: 2, Amp: 1, Period: 40}
	lo, hi := math.Inf(1), math.Inf(-1)
	for s := 0; s < 40; s++ {
		r := d.RateAt(s)
		if r < 0 {
			t.Fatalf("negative rate %v at slot %d", r, s)
		}
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if hi < 3.5 || lo > 0.5 {
		t.Errorf("diurnal swing [%v,%v] too flat", lo, hi)
	}
	if d.RateAt(0) != d.RateAt(40) {
		t.Error("rate is not periodic")
	}
}

func TestBurstyPhase(t *testing.T) {
	b := &Bursty{Calm: 1, Burst: 8, Switch: 1} // toggles every slot
	rng := xrand.New(3)
	if b.Phase() != 0 {
		t.Fatalf("initial phase %d", b.Phase())
	}
	b.Arrivals(rng, 0)
	if b.Phase() != 1 {
		t.Fatal("switch=1 did not toggle to burst")
	}
	b.Arrivals(rng, 1)
	if b.Phase() != 0 {
		t.Fatal("switch=1 did not toggle back")
	}
	if err := b.SetPhase(1); err != nil || b.Phase() != 1 {
		t.Fatalf("SetPhase(1): %v, phase %d", err, b.Phase())
	}
	if err := b.SetPhase(2); err == nil {
		t.Error("bursty accepted phase 2")
	}
	if err := (&Poisson{Rate: 1}).SetPhase(1); err == nil {
		t.Error("poisson accepted phase 1")
	}
	if err := (&Diurnal{Base: 1, Period: 2}).SetPhase(1); err == nil {
		t.Error("diurnal accepted phase 1")
	}
}

// TestBurstyPhaseRestoreDeterminism pins the checkpoint property: rng
// cursor plus phase reproduces the remaining arrival sequence exactly.
func TestBurstyPhaseRestoreDeterminism(t *testing.T) {
	spec := "bursty;rate=1;burst-rate=10;switch=0.3"
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := cfg.Process.(*Bursty)
	stream := xrand.NewStream(11)
	var want []int
	const split, slots = 25, 60
	var cur xrand.Cursor
	var phase int
	for s := 0; s < slots; s++ {
		if s == split {
			cur, phase = stream.Cursor(), b.Phase()
		}
		n := b.Arrivals(stream.Rand(), s)
		if s >= split {
			want = append(want, n)
		}
	}

	cfg2, _ := ParseSpec(spec)
	b2 := cfg2.Process.(*Bursty)
	if err := b2.SetPhase(phase); err != nil {
		t.Fatal(err)
	}
	rs := xrand.Restore(cur)
	for s := split; s < slots; s++ {
		if got := b2.Arrivals(rs.Rand(), s); got != want[s-split] {
			t.Fatalf("slot %d: resumed %d arrivals, want %d", s, got, want[s-split])
		}
	}
}

func TestProcessStrings(t *testing.T) {
	for _, spec := range []string{"poisson;rate=2", "diurnal;rate=2", "bursty;rate=2"} {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		kind := strings.Split(spec, ";")[0]
		if !strings.HasPrefix(cfg.Process.String(), kind+"(") {
			t.Errorf("%q String() = %q", spec, cfg.Process.String())
		}
	}
}
