package lp

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/packing_bits.golden")

// binvAt returns entry (i, j) of the solver's basis inverse.
func binvAt(ps *PackingSolver, i, j int) float64 { return ps.binv[j*ps.m+i] }

// packingBits digests the exact bits of the solver state: x_B, the raw
// duals, the primals, the objective, the pivot count and every entry of
// B⁻¹ in row-major logical order, independent of how B⁻¹ is stored.
// B⁻¹ zeros are hashed as +0: no value computed from B⁻¹ can tell a −0
// entry from a +0 one (DESIGN.md §5b), and refactorize may leave either.
func packingBits(ps *PackingSolver) uint64 {
	var buf []byte
	put := func(v uint64) {
		for k := 0; k < 8; k++ {
			buf = append(buf, byte(v>>(8*k)))
		}
	}
	put(math.Float64bits(ps.Objective()))
	put(uint64(ps.Pivots()))
	for i := 0; i < ps.m; i++ {
		put(uint64(int64(ps.basis[i])))
		put(math.Float64bits(ps.xb[i]))
		put(math.Float64bits(ps.y[i]))
		for j := 0; j < ps.m; j++ {
			v := binvAt(ps, i, j)
			if v == 0 {
				v = 0 // the sign of an exact zero in B⁻¹ reaches no result
			}
			put(math.Float64bits(v))
		}
	}
	for _, x := range ps.Primals() {
		put(math.Float64bits(x))
	}
	f := fnv.New64a()
	f.Write(buf)
	return f.Sum64()
}

// TestPackingBitsGolden pins the packing simplex bit for bit over a
// column-generation pattern: sparse random columns arrive in batches, each
// warm re-solve is forced through a refactorization a few pivots in, and
// the full solver state after every solve is digested. A change to the
// storage or loop structure of pivot, columnInto or refactorize must leave
// this file untouched. It runs once on the portable loops, which -update
// writes from, and once on the AVX2 kernels.
func TestPackingBitsGolden(t *testing.T) {
	eachKernelPath(t, testPackingBitsGolden)
}

func testPackingBitsGolden(t *testing.T) {
	var lines []string
	rng := rand.New(rand.NewSource(2022))
	for trial := 0; trial < 6; trial++ {
		m := 20 + rng.Intn(30)
		b := make([]float64, m)
		for i := range b {
			if rng.Intn(6) == 0 {
				b[i] = 0 // degenerate rows, as dead links give the flow master
			} else {
				b[i] = float64(1 + rng.Intn(10))
			}
		}
		ps, err := NewPacking(b)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			for k := 0; k < 3*m; k++ {
				nnz := 1 + rng.Intn(5)
				if rng.Intn(10) == 0 {
					nnz = m // an occasional dense column
				}
				es := make([]Entry, nnz)
				for e := range es {
					es[e] = Entry{Index: rng.Intn(m), Value: 0.05 + rng.Float64()*3}
				}
				if _, err := ps.AddColumn(0.5+rng.Float64()*2, es); err != nil {
					t.Fatal(err)
				}
			}
			// Refactorize on the (1 + round%3)-th pivot of this solve.
			ps.pivots = 2000*(ps.pivots/2000+1) - 1 - round%3
			st, err := ps.Solve()
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("trial=%d m=%d round=%d status=%v pivots=%d bits=%016x",
				trial, m, round, st, ps.Pivots(), packingBits(ps)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "packing_bits.golden")
	if *updateBits && !useAVX2 {
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
		t.Fatalf("packing simplex bits changed\n--- want\n%s--- got\n%s", want, got)
	}
}
