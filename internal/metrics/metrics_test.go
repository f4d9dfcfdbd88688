package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
	if math.Abs(s.CI95-1.96*wantStd/2) > 1e-12 {
		t.Fatalf("ci = %v", s.CI95)
	}
	if s.MedianApprox != 3 {
		t.Fatalf("median = %v", s.MedianApprox)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary must have N=0")
	}
	if got := Summarize([]float64{5}); got.Std != 0 || got.CI95 != 0 || got.Mean != 5 {
		t.Fatalf("single sample summary = %+v", got)
	}
	if s.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 2})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.9, 0.75}, {3, 1}, {99, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if NewCDF(nil).At(1) != 0 {
		t.Fatal("empty CDF must be 0 everywhere")
	}
	if c.Table() == "" {
		t.Fatal("Table() empty")
	}
}

// Property: a CDF is monotone non-decreasing, starts > 0 at its minimum and
// reaches exactly 1 at its maximum.
func TestCDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		clean := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		prev := 0.0
		for i := range c.Xs {
			if i > 0 && c.Xs[i] <= c.Xs[i-1] {
				return false
			}
			if c.Ps[i] < prev {
				return false
			}
			prev = c.Ps[i]
		}
		if math.Abs(c.Ps[len(c.Ps)-1]-1) > 1e-12 {
			return false
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		return c.At(sorted[0]) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if JainIndex([]float64{1, 1, 1}) != 1 {
		t.Fatal("equal allocation must have index 1")
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("one-of-four allocation index = %v, want 0.25", got)
	}
	if JainIndex(nil) != 1 || JainIndex([]float64{0, 0}) != 1 {
		t.Fatal("degenerate inputs must be 1")
	}
}

// Property: Jain's index lies in [1/n, 1] for non-negative allocations with
// at least one positive entry.
func TestJainIndexRange(t *testing.T) {
	f := func(raw []float64) bool {
		anyPos := false
		for i := range raw {
			raw[i] = math.Abs(raw[i])
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
			if raw[i] > 0 {
				anyPos = true
			}
		}
		if len(raw) == 0 || !anyPos {
			return true
		}
		j := JainIndex(raw)
		return j >= 1/float64(len(raw))-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
