package topo

import (
	"math"
	"testing"

	"see/internal/graph"
	"see/internal/xrand"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few nodes", func(c *Config) { c.Nodes = 1 }},
		{"zero area", func(c *Config) { c.AreaKM = 0 }},
		{"beta zero", func(c *Config) { c.WaxmanBeta = 0 }},
		{"beta over one", func(c *Config) { c.WaxmanBeta = 1.5 }},
		{"gamma zero", func(c *Config) { c.WaxmanGamma = 0 }},
		{"channels zero", func(c *Config) { c.Channels = 0 }},
		{"memory zero", func(c *Config) { c.Memory = 0 }},
		{"swap negative", func(c *Config) { c.SwapProb = -0.1 }},
		{"swap over one", func(c *Config) { c.SwapProb = 1.1 }},
		{"alpha negative", func(c *Config) { c.Alpha = -1 }},
		{"delta negative", func(c *Config) { c.Delta = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
			if _, err := Generate(cfg, xrand.New(1)); err == nil {
				t.Fatal("Generate accepted invalid config")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 60
	a, err := Generate(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLinks() != b.NumLinks() || a.NumNodes() != b.NumNodes() {
		t.Fatal("same seed produced different topologies")
	}
	for i := range a.LinkLen {
		if a.LinkLen[i] != b.LinkLen[i] {
			t.Fatal("same seed produced different link lengths")
		}
	}
}

func TestGenerateConnectedAndValid(t *testing.T) {
	cfg := DefaultConfig()
	for _, n := range []int{20, 100, 200} {
		cfg.Nodes = n
		net, err := Generate(cfg, xrand.New(int64(n)))
		if err != nil {
			t.Fatalf("Generate(%d): %v", n, err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("Validate(%d): %v", n, err)
		}
		if _, count := graph.Components(net.G); count != 1 {
			t.Fatalf("network with %d nodes not connected", n)
		}
		for u := 0; u < n; u++ {
			if net.Memory[u] != cfg.Memory {
				t.Fatalf("memory[%d] = %d", u, net.Memory[u])
			}
			if net.SwapProb[u] != cfg.SwapProb {
				t.Fatalf("swap[%d] = %v", u, net.SwapProb[u])
			}
		}
	}
}

func TestGenerateCalibration(t *testing.T) {
	// Paper: at α=2e-4 the average single-link success probability is
	// about 0.8, implying mean link length around 1100 km. Allow a broad
	// band; the point is the operating regime, not an exact constant.
	cfg := DefaultConfig()
	net, err := Generate(cfg, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(net)
	if st.MeanLinkProb < 0.70 || st.MeanLinkProb > 0.90 {
		t.Fatalf("mean link success probability %.3f outside [0.70, 0.90]", st.MeanLinkProb)
	}
	if st.AvgDegree < 2.5 || st.AvgDegree > 16 {
		t.Fatalf("average degree %.2f outside sane band", st.AvgDegree)
	}
	if st.Components != 1 {
		t.Fatalf("components = %d", st.Components)
	}
}

func TestSegmentSuccessProb(t *testing.T) {
	net, _ := Motivation()
	if p := net.SegmentSuccessProb(graph.Path{MotivS1}); p != 1 {
		t.Fatalf("single-node segment prob = %v, want 1", p)
	}
	if p := net.SegmentSuccessProb(graph.Path{MotivS1, MotivR1}); math.Abs(p-0.9) > 1e-9 {
		t.Fatalf("link prob = %v, want 0.9", p)
	}
	if p := net.SegmentSuccessProb(graph.Path{MotivS2, MotivR1, MotivD2}); p != 0.8 {
		t.Fatalf("s2-r1-d2 prob = %v, want 0.8", p)
	}
	if p := net.SegmentSuccessProb(graph.Path{MotivR1, MotivR2, MotivD1}); p != 0.85 {
		t.Fatalf("r1-r2-d1 prob = %v, want 0.85", p)
	}
	// Non-adjacent path has zero probability.
	if p := net.SegmentSuccessProb(graph.Path{MotivS1, MotivD1}); p != 0 {
		t.Fatalf("non-adjacent segment prob = %v, want 0", p)
	}
}

func TestPathLengthAndEdgeIDs(t *testing.T) {
	net, _ := Motivation()
	p := graph.Path{MotivS2, MotivR1, MotivD2}
	l := net.PathLengthKM(p)
	want := 2 * -math.Log(0.9) / MotivationAlpha
	if math.Abs(l-want) > 1e-6 {
		t.Fatalf("path length = %v, want %v", l, want)
	}
	ids, err := net.PathEdgeIDs(p)
	if err != nil || len(ids) != 2 {
		t.Fatalf("PathEdgeIDs = %v, %v", ids, err)
	}
	if _, err := net.PathEdgeIDs(graph.Path{MotivS1, MotivD2}); err == nil {
		t.Fatal("non-adjacent path must error")
	}
	if !math.IsInf(net.PathLengthKM(graph.Path{MotivS1, MotivD2}), 1) {
		t.Fatal("non-adjacent path length must be +Inf")
	}
}

func TestMotivationFixtureShape(t *testing.T) {
	net, pairs := Motivation()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 6 || net.NumLinks() != 6 {
		t.Fatalf("fixture has %d nodes, %d links; want 6, 6", net.NumNodes(), net.NumLinks())
	}
	if net.Memory[MotivR1] != 2 || net.Memory[MotivR2] != 2 || net.Memory[MotivS1] != 1 {
		t.Fatal("fixture memory wrong")
	}
	if len(pairs) != 2 || pairs[0] != (SDPair{MotivS1, MotivD1}) || pairs[1] != (SDPair{MotivS2, MotivD2}) {
		t.Fatalf("fixture pairs wrong: %v", pairs)
	}
	for _, c := range net.Channels {
		if c != 1 {
			t.Fatal("fixture channels must all be 1")
		}
	}
}

func TestExpProberDeterministicNoise(t *testing.T) {
	e := ExpProber{Alpha: 2e-4, Delta: 0.05, Seed: 9}
	p1 := e.SegmentProb(graph.Path{1, 2, 3}, 1000)
	p2 := e.SegmentProb(graph.Path{1, 2, 3}, 1000)
	if p1 != p2 {
		t.Fatal("noise must be deterministic per path")
	}
	base := math.Exp(-2e-4 * 1000)
	if math.Abs(p1-base) > 0.05+1e-12 {
		t.Fatalf("noise exceeded ±Delta: %v vs %v", p1, base)
	}
	q := e.SegmentProb(graph.Path{1, 2, 4}, 1000)
	if q == p1 {
		t.Fatal("different paths should (generically) get different noise")
	}
}

func TestKeySymmetric(t *testing.T) {
	a := Key(graph.Path{1, 2, 3})
	b := Key(graph.Path{3, 2, 1})
	if a != b {
		t.Fatal("Key must be direction-independent")
	}
	if Key(graph.Path{1, 2, 3}) == Key(graph.Path{1, 3, 2}) {
		t.Fatal("different interior order must produce different keys")
	}
}

func TestChooseSDPairs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 30
	net, err := Generate(cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	pairs := ChooseSDPairs(net, 10, rng)
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs, want 10", len(pairs))
	}
	seen := map[[2]int]struct{}{}
	for _, p := range pairs {
		if p.S == p.D {
			t.Fatal("degenerate SD pair")
		}
		key := [2]int{min(p.S, p.D), max(p.S, p.D)}
		if _, dup := seen[key]; dup {
			t.Fatal("duplicate SD pair")
		}
		seen[key] = struct{}{}
	}
	// Requesting more pairs than exist must cap out.
	tiny := &Network{G: graph.New(3), Pos: make([][2]float64, 3),
		Memory: []int{1, 1, 1}, SwapProb: []float64{1, 1, 1}}
	got := ChooseSDPairs(tiny, 100, rng)
	if len(got) != 3 {
		t.Fatalf("capped pairs = %d, want 3", len(got))
	}
}

func TestSummarize(t *testing.T) {
	net, _ := Motivation()
	st := Summarize(net)
	if st.Nodes != 6 || st.Links != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.MeanLinkProb-0.9) > 1e-9 {
		t.Fatalf("mean link prob = %v, want 0.9", st.MeanLinkProb)
	}
	if st.ChannelsTotal != 6 || st.MemoryTotal != 8 {
		t.Fatalf("resources = %d channels, %d memory", st.ChannelsTotal, st.MemoryTotal)
	}
	if st.AvgDegree != 2 {
		t.Fatalf("avg degree = %v, want 2", st.AvgDegree)
	}
}

func TestGenerateHeterogeneousResources(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 80
	cfg.MemoryJitter = 4
	cfg.ChannelJitter = 2
	cfg.SwapProbJitter = 0.05
	net, err := Generate(cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	sawMemVariation, sawChanVariation := false, false
	for _, m := range net.Memory {
		if m < cfg.Memory-4 || m > cfg.Memory+4 {
			t.Fatalf("memory %d outside jitter band", m)
		}
		if m != cfg.Memory {
			sawMemVariation = true
		}
	}
	for _, c := range net.Channels {
		if c < cfg.Channels-2 || c > cfg.Channels+2 {
			t.Fatalf("channels %d outside jitter band", c)
		}
		if c != cfg.Channels {
			sawChanVariation = true
		}
	}
	for _, q := range net.SwapProb {
		if q < cfg.SwapProb-0.05-1e-12 || q > cfg.SwapProb+0.05+1e-12 {
			t.Fatalf("swap prob %v outside jitter band", q)
		}
	}
	if !sawMemVariation || !sawChanVariation {
		t.Fatal("jitter produced no variation")
	}
}

func TestJitterValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoryJitter = cfg.Memory // would allow zero memory
	if err := cfg.Validate(); err == nil {
		t.Fatal("memory jitter >= memory accepted")
	}
	cfg = DefaultConfig()
	cfg.ChannelJitter = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative channel jitter accepted")
	}
	cfg = DefaultConfig()
	cfg.SwapProbJitter = 0.2 // 0.9 + 0.2 > 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("swap jitter pushing q over 1 accepted")
	}
}
