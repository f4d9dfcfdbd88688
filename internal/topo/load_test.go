package topo

import (
	"strings"
	"testing"

	"see/internal/graph"
)

// noiseless is the paper-default resource config with δ = 0, so loaded
// link probabilities are exactly e^{−αl}.
func noiseless() Config {
	cfg := DefaultConfig()
	cfg.Delta = 0
	return cfg
}

func TestLoadEdgeListBasic(t *testing.T) {
	spec := `
# tiny triangle
node 0 0 0
node 1 1000 0 7 0.8
node 2 0 1000
link 0 1
link 1 2 2500
link 0 2 1400 5
`
	net, err := LoadEdgeList(strings.NewReader(spec), noiseless(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 3 || net.NumLinks() != 3 {
		t.Fatalf("loaded %d nodes, %d links", net.NumNodes(), net.NumLinks())
	}
	d := DefaultConfig()
	if net.Memory[0] != d.Memory || net.Memory[1] != 7 {
		t.Fatalf("memory = %v", net.Memory)
	}
	if net.SwapProb[1] != 0.8 || net.SwapProb[0] != d.SwapProb {
		t.Fatalf("swap = %v", net.SwapProb)
	}
	// Link 0: implicit Euclidean length.
	if net.LinkLen[0] != 1000 {
		t.Fatalf("implicit length = %v, want 1000", net.LinkLen[0])
	}
	if net.LinkLen[1] != 2500 {
		t.Fatalf("explicit length = %v", net.LinkLen[1])
	}
	if net.Channels[2] != 5 || net.Channels[0] != d.Channels {
		t.Fatalf("channels = %v", net.Channels)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, spec string
	}{
		{"unknown decl", "frob 1 2 3\n"},
		{"short node", "node 0 1\n"},
		{"non-dense id", "node 1 0 0\n"},
		{"bad coord", "node 0 x 0\n"},
		{"bad memory", "node 0 0 0 -3\n"},
		{"bad swap", "node 0 0 0 5 1.5\n"},
		{"short link", "node 0 0 0\nnode 1 1 1\nlink 0\n"},
		{"self link", "node 0 0 0\nnode 1 1 1\nlink 0 0\n"},
		{"out of range", "node 0 0 0\nnode 1 1 1\nlink 0 9\n"},
		{"bad length", "node 0 0 0\nnode 1 1 1\nlink 0 1 -5\n"},
		{"bad channels", "node 0 0 0\nnode 1 1 1\nlink 0 1 5 x\n"},
		{"too few nodes", "node 0 0 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadEdgeList(strings.NewReader(tc.spec), noiseless(), 0); err == nil {
				t.Fatalf("spec accepted:\n%s", tc.spec)
			}
		})
	}
}

func TestNSFNet(t *testing.T) {
	net, err := NSFNet(noiseless(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 14 {
		t.Fatalf("NSFNET has %d nodes, want 14", net.NumNodes())
	}
	if net.NumLinks() != 21 {
		t.Fatalf("NSFNET has %d links, want 21", net.NumLinks())
	}
	if _, count := graph.Components(net.G); count != 1 {
		t.Fatal("NSFNET must be connected")
	}
	st := Summarize(net)
	if st.AvgDegree < 2.5 || st.AvgDegree > 3.5 {
		t.Fatalf("NSFNET degree = %.2f, want 3", st.AvgDegree)
	}
	// Every link success probability must be usable under defaults.
	for u := 0; u < net.NumNodes(); u++ {
		for _, e := range net.G.Neighbors(u) {
			if u > e.To {
				continue
			}
			p := net.SegmentSuccessProb(graph.Path{u, e.To})
			if p < 0.5 || p > 1 {
				t.Fatalf("link %d-%d success probability %v out of band", u, e.To, p)
			}
		}
	}
	// Custom resources flow through.
	custom := noiseless()
	custom.Memory, custom.Channels, custom.SwapProb = 4, 2, 0.7
	net2, err := NSFNet(custom, 0)
	if err != nil {
		t.Fatal(err)
	}
	if net2.Memory[0] != 4 || net2.Channels[0] != 2 || net2.SwapProb[0] != 0.7 {
		t.Fatal("config resources ignored")
	}
}
