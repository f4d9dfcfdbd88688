package qnet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"see/internal/graph"
	"see/internal/segment"
	"see/internal/xrand"
)

// poolReference is the map-of-slices Pool kept verbatim from before the
// indexed pool: TestPoolMatchesReference pins Pool to it step for step.
type poolReference struct {
	byPair map[segment.PairKey][]*Segment
}

func newPoolReference(segs []*Segment) *poolReference {
	p := &poolReference{byPair: make(map[segment.PairKey][]*Segment)}
	p.fill(segs)
	return p
}

// Reset repopulates the pool in place with a new slot's segments, reusing
// the index map (and its per-pair buckets' backing arrays where possible)
// instead of allocating a fresh pool every slot.
func (p *poolReference) Reset(segs []*Segment) {
	for pk, bucket := range p.byPair {
		p.byPair[pk] = bucket[:0]
	}
	p.fill(segs)
	// Drop pairs that received nothing this slot so Pairs/Available see
	// exactly the same key set a fresh pool would.
	for pk, bucket := range p.byPair {
		if len(bucket) == 0 {
			delete(p.byPair, pk)
		}
	}
}

func (p *poolReference) fill(segs []*Segment) {
	for _, s := range segs {
		p.byPair[s.Pair()] = append(p.byPair[s.Pair()], s)
	}
}

// Available returns how many unconsumed segments remain for a pair.
func (p *poolReference) Available(pk segment.PairKey) int {
	n := 0
	for _, s := range p.byPair[pk] {
		if !s.consumed {
			n++
		}
	}
	return n
}

// Take consumes one segment for the pair, or returns nil if none remain.
func (p *poolReference) Take(pk segment.PairKey) *Segment {
	for _, s := range p.byPair[pk] {
		if !s.consumed {
			s.consumed = true
			return s
		}
	}
	return nil
}

// Return un-consumes a segment (used when a partially assembled connection
// is rolled back).
func (p *poolReference) Return(s *Segment) {
	s.consumed = false
}

// TakeBest consumes the pair's unconsumed segment maximizing score (first
// wins on ties, so the choice is deterministic), or returns nil if none
// remain. Floor-enforcing engines use it so a rejected assembly proves no
// segment combination for the path could have met the floor.
func (p *poolReference) TakeBest(pk segment.PairKey, score func(s *Segment) float64) *Segment {
	var best *Segment
	bestScore := math.Inf(-1)
	for _, s := range p.byPair[pk] {
		if s.consumed {
			continue
		}
		if sc := score(s); sc > bestScore {
			best, bestScore = s, sc
		}
	}
	if best != nil {
		best.consumed = true
	}
	return best
}

// Pairs returns the endpoint pairs with at least one unconsumed segment,
// sorted.
func (p *poolReference) Pairs() []segment.PairKey {
	keys := make([]segment.PairKey, 0, len(p.byPair))
	for pk := range p.byPair {
		if p.Available(pk) > 0 {
			keys = append(keys, pk)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].U != keys[j].U {
			return keys[i].U < keys[j].U
		}
		return keys[i].V < keys[j].V
	})
	return keys
}

// Unconsumed returns every segment no connection consumed, in deterministic
// order (sorted endpoint pairs, then insertion order within a pair). The
// cross-slot state bank deposits from this list, so the set of banked
// segments is a pure function of the slot's outcome.
func (p *poolReference) Unconsumed() []*Segment {
	var out []*Segment
	for _, pk := range p.Pairs() {
		for _, s := range p.byPair[pk] {
			if !s.consumed {
				out = append(out, s)
			}
		}
	}
	return out
}

// twinSegments is one segment universe realized twice: the reference pool
// runs on a, the indexed pool on b, and a[k] ↔ b[k] is the same segment.
// Consumed state lives in the segments, so each pool needs its own copy.
//
// A segment has no candidate, a candidate of one set (cands: PairID dense
// per pair), or a candidate whose small random PairID may name another
// pair, as one from another set or made outside one would.
type twinSegments struct {
	a, b  []*Segment
	idx   map[*Segment]int
	cands map[segment.PairKey]*segment.Candidate
}

func (tw *twinSegments) add(rng *rand.Rand, u, v int) int {
	scale := []float64{0.5, 0.75, 1}[rng.Intn(3)]
	var c *segment.Candidate
	switch rng.Intn(3) {
	case 1:
		pk := segment.MakePairKey(u, v)
		if c = tw.cands[pk]; c == nil {
			c = &segment.Candidate{Path: graph.Path{u, v}, PairID: len(tw.cands)}
			tw.cands[pk] = c
		}
	case 2:
		c = &segment.Candidate{Path: graph.Path{u, v}, PairID: rng.Intn(4)}
	}
	for _, dst := range []*[]*Segment{&tw.a, &tw.b} {
		s := &Segment{A: u, B: v, Cand: c}
		s.SetWernerScale(scale)
		*dst = append(*dst, s)
		tw.idx[s] = len(*dst) - 1
	}
	return len(tw.a) - 1
}

// TestPoolMatchesReference drives the indexed Pool and poolReference
// through random sequences of NewPool, Reset (to overlapping and disjoint
// key sets, with carried leftovers; segments with and without candidates,
// whose PairIDs are right or misleading), TakeAt and TakeBestAt (against the
// reference's Take and TakeBest) and Return, and after every step
// requires the same returned segment, the same available count for every
// pair, IndexOf and IndexOfID (under right, absent and misleading IDs)
// equal to a scan of the keys, SortedIndices in pair order,
// Pairs and AppendUnconsumed.
func TestPoolMatchesReference(t *testing.T) {
	score := func(s *Segment) float64 { return s.WernerScale() }
	for trial := 0; trial < 200; trial++ {
		rng := xrand.New(int64(trial))
		tw := &twinSegments{idx: make(map[*Segment]int), cands: make(map[segment.PairKey]*segment.Candidate)}
		// Pairs over nodes [base, base+span): Reset shifts base to move
		// between overlapping and disjoint key sets.
		span := 2 + rng.Intn(4)
		randPair := func(base int) (int, int) {
			u := base + rng.Intn(span)
			v := base + rng.Intn(span)
			for v == u {
				v = base + rng.Intn(span)
			}
			return u, v
		}
		batch := func(base int, carried []int) []int {
			ks := append([]int(nil), carried...)
			for n := rng.Intn(12); n > 0; n-- {
				u, v := randPair(base)
				ks = append(ks, tw.add(rng, u, v))
			}
			return ks
		}
		pick := func(ks []int, side []*Segment) []*Segment {
			out := make([]*Segment, len(ks))
			for i, k := range ks {
				out[i] = side[k]
			}
			return out
		}
		mapped := func(got []*Segment) []int {
			out := make([]int, len(got))
			for i, s := range got {
				out[i] = tw.idx[s]
			}
			return out
		}
		var ref *poolReference
		var pool *Pool
		var inPool []int // universe indices currently filled
		fillAt := func(base int, fresh bool) {
			var carried []int
			for _, k := range inPool {
				if rng.Intn(3) == 0 {
					carried = append(carried, k)
				}
			}
			inPool = batch(base, carried)
			if fresh || pool == nil {
				ref, pool = newPoolReference(pick(inPool, tw.a)), NewPool(pick(inPool, tw.b))
			} else {
				ref.Reset(pick(inPool, tw.a))
				pool.Reset(pick(inPool, tw.b))
			}
		}
		base := 0
		fillAt(base, true)
		for step := 0; step < 60; step++ {
			var got, want *Segment
			what := ""
			switch op := rng.Intn(10); {
			case op == 0:
				if rng.Intn(2) == 0 {
					base = rng.Intn(3) * span / 2 // overlapping or disjoint
				}
				fillAt(base, rng.Intn(4) == 0)
				what = "reset"
			case op <= 4:
				pk := segment.MakePairKey(randPair(base))
				want = ref.Take(pk)
				if i := indexOf(pool, pk); i >= 0 && rng.Intn(2) == 0 {
					got, what = pool.TakeAt(i), "TakeAt"
				} else {
					got, what = take(pool, pk), "IndexOf+TakeAt"
				}
			case op <= 7:
				pk := segment.MakePairKey(randPair(base))
				want = ref.TakeBest(pk, score)
				if i := pool.IndexOf(pk); i >= 0 {
					got = pool.TakeBestAt(i, score)
				}
				what = "TakeBestAt"
			default:
				if len(inPool) == 0 {
					continue
				}
				k := inPool[rng.Intn(len(inPool))]
				ref.Return(tw.a[k])
				pool.Return(tw.b[k])
				what = "Return"
			}
			if (want == nil) != (got == nil) || (want != nil && tw.idx[want] != tw.idx[got]) {
				t.Fatalf("trial %d step %d: %s returned %v, reference %v", trial, step, what, got, want)
			}
			for u := 0; u < 3*span; u++ {
				for v := u + 1; v < 3*span; v++ {
					pk := segment.MakePairKey(u, v)
					if a, b := ref.Available(pk), available(pool, pk); a != b {
						t.Fatalf("trial %d step %d (%s): Available(%v) = %d, reference %d", trial, step, what, pk, b, a)
					}
					a := indexOf(pool, pk)
					if b := pool.IndexOf(pk); a != b {
						t.Fatalf("trial %d step %d (%s): IndexOf(%v) = %d, scan says %d", trial, step, what, pk, b, a)
					}
					// IndexOfID under the pair's own ID, no ID and the
					// small IDs that may name another pair.
					ids := []int{-1, 0, 1, 2, 3}
					if c := tw.cands[pk]; c != nil {
						ids = append(ids, c.PairID)
					}
					for _, id := range ids {
						if b := pool.IndexOfID(id, pk); a != b {
							t.Fatalf("trial %d step %d (%s): IndexOfID(%d, %v) = %d, scan says %d", trial, step, what, id, pk, b, a)
						}
					}
				}
			}
			order := pool.SortedIndices()
			for k, i := range order {
				if k > 0 && !pairLess(pool.KeyAt(order[k-1]), pool.KeyAt(i)) {
					t.Fatalf("trial %d step %d: SortedIndices out of order at %d", trial, step, k)
				}
			}
			if a, b := ref.Pairs(), availablePairs(pool); !slices.Equal(a, b) {
				t.Fatalf("trial %d step %d (%s): Pairs = %v, reference %v", trial, step, what, b, a)
			}
			if a, b := mapped(ref.Unconsumed()), mapped(pool.AppendUnconsumed(nil)); !slices.Equal(a, b) {
				t.Fatalf("trial %d step %d (%s): Unconsumed = %v, reference %v", trial, step, what, b, a)
			}
		}
	}
}

// TestPoolResetRetainsNoSegments: after Reset to fewer segments no bucket's
// backing array still points at a previous slot's segment past its length,
// which would keep a dead segment (and whatever holds it) reachable.
func TestPoolResetRetainsNoSegments(t *testing.T) {
	var first []*Segment
	for i := 0; i < 8; i++ {
		first = append(first, &Segment{A: 0, B: 1}, &Segment{A: 1, B: 2})
	}
	pool := NewPool(first)
	pool.Reset([]*Segment{{A: 0, B: 1}})
	pool.Reset([]*Segment{{A: 1, B: 2}, {A: 2, B: 3}})
	for i, b := range pool.buckets {
		for j, s := range b[len(b):cap(b)] {
			if s != nil {
				t.Fatalf("bucket %v retains a segment at %d past len %d", pool.keys[i], len(b)+j, len(b))
			}
		}
	}
	if available(pool, segment.MakePairKey(0, 1)) != 0 || indexOf(pool, segment.MakePairKey(5, 6)) != -1 {
		t.Fatal("Reset kept a previous slot's segment, or invented a pair")
	}
}

// availablePairs lists the endpoint pairs with at least one unconsumed
// segment, sorted: the pairs StitchRoutes puts on its aux graph.
func availablePairs(pool *Pool) []segment.PairKey {
	var keys []segment.PairKey
	for _, i := range pool.SortedIndices() {
		if pool.AvailableAt(i) > 0 {
			keys = append(keys, pool.KeyAt(i))
		}
	}
	return keys
}

// available is the pair's unconsumed count, 0 for a pair the pool never
// held.
func available(pool *Pool, pk segment.PairKey) int {
	if i := pool.IndexOf(pk); i >= 0 {
		return pool.AvailableAt(i)
	}
	return 0
}

// take consumes one segment of the pair, or returns nil if none remain.
func take(pool *Pool, pk segment.PairKey) *Segment {
	if i := pool.IndexOf(pk); i >= 0 {
		return pool.TakeAt(i)
	}
	return nil
}

// indexOf returns the pool index of pk, or -1 if the pool never held it.
func indexOf(pool *Pool, pk segment.PairKey) int {
	for _, i := range pool.SortedIndices() {
		if pool.KeyAt(i) == pk {
			return i
		}
	}
	return -1
}

func pairLess(a, b segment.PairKey) bool { return a.U < b.U || a.U == b.U && a.V < b.V }
