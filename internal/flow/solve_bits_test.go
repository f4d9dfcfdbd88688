package flow

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"see/internal/segment"
	"see/internal/topo"
	"see/internal/xrand"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/solve_bits.golden")

// bitsHash accumulates the exact bits of a Solution: every float through
// math.Float64bits, every integer as-is, so any change to the arithmetic of
// column generation — not just to its rounded output — changes the digest.
type bitsHash struct{ buf []byte }

func (h *bitsHash) u64(v uint64) {
	for k := 0; k < 8; k++ {
		h.buf = append(h.buf, byte(v>>(8*k)))
	}
}

func (h *bitsHash) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *bitsHash) int(v int)     { h.u64(uint64(int64(v))) }

func (h *bitsHash) sum() uint64 {
	f := fnv.New64a()
	f.Write(h.buf)
	return f.Sum64()
}

// solveBitsLine solves with newModel/run (the body of SolveCtx) and renders
// the bit digest of the Solution together with the master's pivot count.
func solveBitsLine(t *testing.T, name string, set *segment.Set, opts Options) string {
	t.Helper()
	m, err := newModel(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var h bitsHash
	h.int(int(sol.Status))
	h.f64(sol.Objective)
	for _, v := range sol.PerCommodity {
		h.f64(v)
	}
	for _, p := range sol.Paths {
		h.int(p.Commodity)
		h.f64(p.Flow)
		h.int(len(p.Nodes))
		for _, v := range p.Nodes {
			h.int(v)
		}
		h.int(len(p.Hops))
		for _, hop := range p.Hops {
			h.int(hop.Pair.U)
			h.int(hop.Pair.V)
			idx := -1
			for k, c := range set.ByPair[hop.Pair] {
				if c == hop.Cand {
					idx = k
				}
			}
			if idx < 0 {
				t.Fatalf("%s: hop candidate not in ByPair", name)
			}
			h.int(idx)
		}
	}
	h.int(sol.Rounds)
	h.int(sol.Columns)
	h.int(m.solver.Pivots())
	return fmt.Sprintf("%s rounds=%d columns=%d pivots=%d paths=%d bits=%016x",
		name, sol.Rounds, sol.Columns, m.solver.Pivots(), len(sol.Paths), h.sum())
}

func solveBitsSet(t *testing.T, jitter float64) *segment.Set {
	t.Helper()
	cfg := topo.DefaultConfig()
	cfg.Nodes = 120
	cfg.SwapProbJitter = jitter
	net, err := topo.Generate(cfg, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.ChooseSDPairs(net, 14, xrand.New(12))
	set, err := segment.Build(net, pairs, segment.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSolveBitsGolden pins column generation bit for bit: the objective,
// per-commodity totals, every path's flow, nodes and realizations, the round
// and column counts and the master's pivot count, across both pricing
// oracles, the override options and heterogeneous swap probabilities, plus
// a REPS-style sequence of re-solves sharing one Arena. A performance change
// to the simplex or the pricing must leave this file untouched.
func TestSolveBitsGolden(t *testing.T) {
	var lines []string
	for _, jitter := range []float64{0, 0.05} {
		set := solveBitsSet(t, jitter)
		net := set.Net
		// Half the links and a few nodes lose capacity; the dead ones leave
		// the column space under DropDeadLinks.
		ch := append([]int(nil), net.Channels...)
		for i := range ch {
			if i%5 == 0 {
				ch[i] = 0
			} else if i%5 == 1 {
				ch[i] = max(0, ch[i]-1)
			}
		}
		mem := append([]int(nil), net.Memory...)
		for i := range mem {
			if i%11 == 3 {
				mem[i] = 0
			}
		}
		cw := make([]float64, len(set.EdgePairs))
		for i := range cw {
			cw[i] = 1 + float64(i%5)*0.25
		}
		overrides := []struct {
			name string
			opts Options
		}{
			{"plain", Options{}},
			{"drop-dead", Options{Channels: ch, Memory: mem, DropDeadLinks: true}},
			{"carry", Options{CarryWeights: cw}},
		}
		for _, swap := range []bool{false, true} {
			for _, ov := range overrides {
				opts := ov.opts
				opts.SwapWeightedObjective = swap
				name := fmt.Sprintf("jitter=%g swap=%v %s", jitter, swap, ov.name)
				lines = append(lines, solveBitsLine(t, name, set, opts))
			}
		}

		// REPS's progressive rounding: re-solves over one arena with the
		// residual channel capacities shrinking each round.
		arena := &Arena{}
		for round := 0; round < 6; round++ {
			res := make([]int, len(net.Channels))
			for i, c := range net.Channels {
				res[i] = max(0, c-(round+i%3)/3)
			}
			name := fmt.Sprintf("jitter=%g arena round=%d", jitter, round)
			lines = append(lines, solveBitsLine(t, name, set, Options{Channels: res, Arena: arena}))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "solve_bits.golden")
	if *updateBits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Fatalf("column generation bits changed\n--- want\n%s--- got\n%s", want, got)
	}
}
