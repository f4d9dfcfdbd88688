package qnet

import (
	"cmp"
	"math"
	"slices"

	"see/internal/segment"
)

// Pool indexes realized segments by endpoint pair and hands them out to
// connections.
//
// Each endpoint pair gets a dense index the first time a segment of it is
// filled in, and keeps it across Reset. A segment's pair is found through
// its candidate's set-wide pair index (segment.Candidate.PairID) without
// hashing; the key map serves segments without a candidate, pairs seen
// for the first time, IndexOf and IndexOfID's misses. Per index the pool holds the
// pair's bucket (insertion order) and its count of unconsumed segments,
// which TakeAt, TakeBestAt and Return maintain, so AvailableAt is a
// counter read. The key set only grows; it is bounded by the endpoint
// pairs of the segment catalogue, and every accessor filters by
// availability, so a pair with nothing left is invisible exactly as if it
// had never been filled. Segments handed to a pool must be distinct, and
// their consumed state changes only through the pool.
type Pool struct {
	index map[segment.PairKey]int
	// byCand maps a candidate's PairID to its pair's index plus one (0 for
	// none yet). An entry is trusted only if keys says it is the
	// segment's own pair, so candidates of another set, or made outside
	// one, fall back to index.
	byCand  []int
	keys    []segment.PairKey // index → endpoint pair
	buckets [][]*Segment      // index → the pair's segments
	avail   []int             // index → unconsumed segments in the bucket
	// order lists the indices sorted by endpoint pair. It is re-sorted
	// only when the key set has grown since the last sort.
	order []int
	// filled lists the indices whose bucket the last fill wrote, each
	// once: every other bucket is already empty, so Reset visits only
	// these.
	filled []int
}

// NewPool builds a pool over realized segments.
func NewPool(segs []*Segment) *Pool {
	p := &Pool{index: make(map[segment.PairKey]int)}
	p.fill(segs)
	return p
}

// Reset repopulates the pool in place with a new slot's segments, reusing
// the pair index and the buckets' backing arrays instead of allocating a
// fresh pool every slot. It empties only the buckets the last fill wrote
// (every other one is empty already), so its cost follows the previous
// slot's segments, not every pair the pool has ever held. It nils their
// pointers first, as a stale pointer past len would keep a dead segment
// reachable; a plain loop, since a clear call per bucket costs more than
// the few stores a bucket needs.
func (p *Pool) Reset(segs []*Segment) {
	for _, i := range p.filled {
		b := p.buckets[i]
		for k := 0; k < len(b); k++ {
			b[k] = nil
		}
		p.buckets[i] = b[:0]
		p.avail[i] = 0
	}
	p.filled = p.filled[:0]
	p.fill(segs)
}

func (p *Pool) fill(segs []*Segment) {
	for _, s := range segs {
		i, ok := p.cached(s)
		if !ok {
			i = p.assign(s)
		}
		if len(p.buckets[i]) == 0 {
			p.filled = append(p.filled, i)
		}
		p.buckets[i] = append(p.buckets[i], s)
		if !s.consumed {
			p.avail[i]++
		}
	}
}

// cached returns the index of s's pair if the PairID cache holds it.
func (p *Pool) cached(s *Segment) (int, bool) {
	if c := s.Cand; c != nil && c.PairID >= 0 && c.PairID < len(p.byCand) {
		if i := p.byCand[c.PairID] - 1; i >= 0 && p.keys[i] == s.Pair() {
			return i, true
		}
	}
	return 0, false
}

// assign returns the index of s's pair, giving the pair one if it has
// none, and caches it under the candidate's PairID.
func (p *Pool) assign(s *Segment) int {
	pk := s.Pair()
	i, ok := p.index[pk]
	if !ok {
		i = len(p.keys)
		p.index[pk] = i
		p.keys = append(p.keys, pk)
		p.buckets = append(p.buckets, nil)
		p.avail = append(p.avail, 0)
	}
	if c := s.Cand; c != nil && c.PairID >= 0 {
		if c.PairID >= len(p.byCand) {
			p.byCand = append(p.byCand, make([]int, c.PairID+1-len(p.byCand))...)
		}
		p.byCand[c.PairID] = i + 1
	}
	return i
}

// AvailableAt returns how many unconsumed segments remain for the pair of
// index i (from SortedIndices).
func (p *Pool) AvailableAt(i int) int { return p.avail[i] }

// NumPairs returns how many endpoint pairs the pool has assigned an
// index. It only grows, and indices 0..NumPairs()−1 are assigned.
func (p *Pool) NumPairs() int { return len(p.keys) }

// IndexOf returns the pool index of a pair, or -1 if the pool has never
// held one of its segments. An index never changes once assigned, and a
// pair without one has nothing available until the next fill.
func (p *Pool) IndexOf(pk segment.PairKey) int {
	if i, ok := p.index[pk]; ok {
		return i
	}
	return -1
}

// IndexOfID is IndexOf for a pair whose set-wide pair ID
// (segment.Candidate.PairID) is id: it reads the PairID cache first and
// hashes pk only if the cache does not hold pk under id, so an id of
// another pair, or a negative one, gives IndexOf's answer.
func (p *Pool) IndexOfID(id int, pk segment.PairKey) int {
	// cached's check, on an ID and key instead of a segment: cached stays
	// small enough to inline into fill.
	if id >= 0 && id < len(p.byCand) {
		if i := p.byCand[id] - 1; i >= 0 && p.keys[i] == pk {
			return i
		}
	}
	return p.IndexOf(pk)
}

// TakeAt consumes one segment of the pair of index i, in insertion order,
// or returns nil if none remain.
func (p *Pool) TakeAt(i int) *Segment {
	if p.avail[i] == 0 {
		return nil
	}
	for _, s := range p.buckets[i] {
		if !s.consumed {
			s.consumed = true
			p.avail[i]--
			return s
		}
	}
	return nil
}

// Return un-consumes a segment of the pool (used when a partially
// assembled connection is rolled back).
func (p *Pool) Return(s *Segment) {
	if !s.consumed {
		return
	}
	s.consumed = false
	i, ok := p.cached(s)
	if !ok {
		i, ok = p.index[s.Pair()]
	}
	if ok {
		p.avail[i]++
	}
}

// TakeBestAt consumes the unconsumed segment of the pair of index i that
// maximizes score (first wins on ties, so the choice is deterministic), or
// returns nil if none remain. Floor-enforcing engines use it so a rejected
// assembly proves no segment combination for the path could have met the
// floor.
func (p *Pool) TakeBestAt(i int, score func(s *Segment) float64) *Segment {
	if p.avail[i] == 0 {
		return nil
	}
	var best *Segment
	bestScore := math.Inf(-1)
	for _, s := range p.buckets[i] {
		if s.consumed {
			continue
		}
		if sc := score(s); sc > bestScore {
			best, bestScore = s, sc
		}
	}
	if best != nil {
		best.consumed = true
		p.avail[i]--
	}
	return best
}

// SortedIndices returns every pair index the pool has assigned, sorted by
// endpoint pair, sorting only when pairs were added since the last call.
// The slice is the pool's own: callers must not modify it, and it is valid
// until the next fill.
func (p *Pool) SortedIndices() []int {
	if len(p.order) < len(p.keys) {
		for i := len(p.order); i < len(p.keys); i++ {
			p.order = append(p.order, i)
		}
		slices.SortFunc(p.order, func(a, b int) int {
			ka, kb := p.keys[a], p.keys[b]
			if c := cmp.Compare(ka.U, kb.U); c != 0 {
				return c
			}
			return cmp.Compare(ka.V, kb.V)
		})
	}
	return p.order
}

// KeyAt returns the endpoint pair of index i.
func (p *Pool) KeyAt(i int) segment.PairKey { return p.keys[i] }

// AppendUnconsumed appends every segment no connection consumed to out,
// in deterministic order (sorted endpoint pairs, then insertion order
// within a pair), and returns the extended slice. The cross-slot state
// bank deposits from this list, so the set of banked segments is a pure
// function of the slot's outcome.
func (p *Pool) AppendUnconsumed(out []*Segment) []*Segment {
	for _, i := range p.SortedIndices() {
		if p.avail[i] == 0 {
			continue
		}
		for _, s := range p.buckets[i] {
			if !s.consumed {
				out = append(out, s)
			}
		}
	}
	return out
}
