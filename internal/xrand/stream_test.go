package xrand

import (
	"testing"
)

// TestStreamMatchesNew asserts the byte-compatibility contract: a Stream
// yields exactly the values of a plain New(seed) generator.
func TestStreamMatchesNew(t *testing.T) {
	s := NewStream(42)
	plain := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := s.Rand().Int63(), plain.Int63(); got != want {
			t.Fatalf("draw %d: stream %d, plain %d", i, got, want)
		}
	}
	if s.pos != 1000 {
		t.Fatalf("pos = %d after 1000 draws", s.pos)
	}
}

// TestForTrialStreamMatchesForTrial pins the trial-seed derivation: a
// Stream over the trial seed draws what ForTrial draws.
func TestForTrialStreamMatchesForTrial(t *testing.T) {
	s := NewStream(TrialSeed(20220101, 7))
	plain := ForTrial(20220101, 7)
	for i := 0; i < 100; i++ {
		if got, want := s.Rand().Float64(), plain.Float64(); got != want {
			t.Fatalf("draw %d: stream %v, plain %v", i, got, want)
		}
	}
}

// TestCursorRestore asserts the replay contract at arbitrary split points:
// restoring a cursor reproduces the remaining stream exactly, for every
// rand.Rand entry point engines use.
func TestCursorRestore(t *testing.T) {
	for _, split := range []int{0, 1, 17, 256} {
		ref := NewStream(9)
		// Mix of draw kinds, including the variable-consumption ones.
		burn := func(rng *Stream, n int) []float64 {
			var out []float64
			for i := 0; i < n; i++ {
				out = append(out, rng.Rand().Float64())
				out = append(out, float64(rng.Rand().Intn(7)))
				if i%3 == 0 {
					out = append(out, rng.Rand().NormFloat64())
				}
			}
			return out
		}
		burn(ref, split)
		cur := ref.Cursor()
		want := burn(ref, 50)

		resumed := Restore(cur)
		if resumed.pos != cur.Pos {
			t.Fatalf("split %d: restored Pos %d, want %d", split, resumed.pos, cur.Pos)
		}
		got := burn(resumed, 50)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split %d: draw %d diverged: got %v, want %v", split, i, got[i], want[i])
			}
		}
	}
}

// TestStreamReseed checks that Seed resets the stream to a fresh state.
func TestStreamReseed(t *testing.T) {
	s := NewStream(3)
	s.Rand().Int63()
	s.Seed(11)
	if s.pos != 0 || s.seed != 11 {
		t.Fatalf("after Seed(11): pos=%d seed=%d", s.pos, s.seed)
	}
	if got, want := s.Rand().Int63(), New(11).Int63(); got != want {
		t.Fatalf("reseeded stream %d, fresh generator %d", got, want)
	}
}

// TestSkip checks Skip advances the position identically to discarding
// draws.
func TestSkip(t *testing.T) {
	a, b := NewStream(5), NewStream(5)
	for i := 0; i < 33; i++ {
		a.Rand().Int63()
	}
	b.Skip(33)
	if a.pos != b.pos {
		t.Fatalf("pos mismatch: %d vs %d", a.pos, b.pos)
	}
	if x, y := a.Rand().Int63(), b.Rand().Int63(); x != y {
		t.Fatalf("post-skip draw mismatch: %d vs %d", x, y)
	}
}
