package xrand

import (
	"fmt"
	"math/rand"
)

// Cursor pins the exact position of a Stream: the seed that created it and
// the number of low-level draws consumed since seeding. A cursor is the
// serializable identity of an rng state — checkpoints store cursors, and
// Restore reconstructs the stream so the next draw is exactly the draw the
// original stream would have produced.
type Cursor struct {
	Seed int64  `json:"seed"`
	Pos  uint64 `json:"pos"`
}

// Stream is a deterministic random stream with an explicit position. It
// wraps the same generator New returns — a Stream and a plain New(seed)
// produce byte-identical values — but counts every low-level draw, so the
// stream can be snapshotted (Cursor) and reconstructed (Restore) at any
// point between draws.
//
// Stream implements rand.Source64; engines consume it through Rand(),
// which returns a *rand.Rand backed by the counting source. Do not mix
// draws from Rand() with direct Int63/Uint64 calls on the same Stream
// unless you account for both in replay order (both advance the one
// position).
type Stream struct {
	seed int64
	pos  uint64
	src  rand.Source64
	rng  *rand.Rand
}

var _ rand.Source64 = (*Stream)(nil)

// NewStream returns a position-tracking stream for the seed. The values it
// yields are identical to New(seed)'s.
func NewStream(seed int64) *Stream {
	s := &Stream{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
	s.rng = rand.New(s)
	return s
}

// Rand returns the generator backed by this stream. Every draw through it
// advances the stream's position by the number of low-level source steps it
// consumes.
func (s *Stream) Rand() *rand.Rand { return s.rng }

// Cursor snapshots the stream's position. Valid only between draws (i.e.
// between RunSlot calls, not mid-slot): restoring a cursor reproduces the
// remaining stream exactly.
func (s *Stream) Cursor() Cursor { return Cursor{Seed: s.seed, Pos: s.pos} }

// Int63 implements rand.Source, counting the draw.
func (s *Stream) Int63() int64 {
	s.pos++
	return s.src.Int63()
}

// Uint64 implements rand.Source64, counting the draw.
func (s *Stream) Uint64() uint64 {
	s.pos++
	return s.src.Uint64()
}

// Seed reseeds the stream and resets its position, preserving the
// cursor-replay contract: a reseeded stream is indistinguishable from
// NewStream(seed).
func (s *Stream) Seed(seed int64) {
	s.seed = seed
	s.pos = 0
	s.src.Seed(seed)
}

// Restore reconstructs the stream a cursor was taken from by reseeding and
// fast-forwarding: the next draw equals the original stream's next draw.
// The cost is linear in Pos (one source step per consumed draw, roughly
// 5·10⁸ steps per second), which keeps restore O(history) but checkpoint
// O(1) — the trade that preserves byte-compatibility with every existing
// xrand stream. Restores are rare (one per process resume), so linear
// replay is the right side of that trade.
func Restore(c Cursor) *Stream {
	s := NewStream(c.Seed)
	s.Skip(c.Pos)
	return s
}

// Skip discards n low-level draws, advancing the position without
// producing values.
func (s *Stream) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.pos += n
}

// String renders the stream position for diagnostics.
func (s *Stream) String() string {
	return fmt.Sprintf("xrand.Stream{seed: %d, pos: %d}", s.seed, s.pos)
}

// TrialSeed derives the canonical per-trial seed used by ForTrial: a
// SplitMix-style mix of (baseSeed, trial) that keeps nearby pairs
// decorrelated. Exposed so checkpointing layers can name the seed of a
// trial stream without holding the stream itself.
func TrialSeed(baseSeed int64, trial int) int64 {
	z := uint64(baseSeed) + 0x9e3779b97f4a7c15*uint64(trial+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
