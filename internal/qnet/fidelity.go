package qnet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// FidelityModel estimates end-to-end entanglement fidelity under a
// Werner-state noise model. The paper optimizes throughput only and leaves
// fidelity to future work; this extension makes the SEE-vs-REPS fidelity
// trade-off measurable: segmented establishment crosses each fibre span in
// one optical shot (fewer noisy swap operations) but its photons travel
// farther before detection (more transmission depolarization), each
// segment by its candidate's stored factor e^(−l/segment.DecayKM).
type FidelityModel struct {
	// F0 is the fidelity of a freshly created Bell pair over zero
	// distance (detector/source imperfections only). Typical: 0.99.
	F0 float64
	// SwapF0 scales the Werner parameter at every swap operation,
	// modelling imperfect Bell-state measurement. Typical: 0.98.
	SwapF0 float64
}

// DefaultFidelityModel returns plausible near-term parameters.
func DefaultFidelityModel() FidelityModel {
	return FidelityModel{F0: 0.99, SwapF0: 0.98}
}

// wernerOf converts fidelity F to the Werner parameter w = (4F−1)/3.
func wernerOf(f float64) float64 { return (4*f - 1) / 3 }

// fidelityOf converts a Werner parameter back to fidelity.
func fidelityOf(w float64) float64 { return (3*w + 1) / 4 }

// PredictFidelity is the end-to-end fidelity of a connection assembled from
// segs, including each segment's age-decay Werner scale (see
// Segment.WernerScale). The Werner composition is associative and
// commutative, so the value is independent of the swap order: it is both
// the decision-time prediction the fidelity floors gate on and the
// report-time value recorded on established connections — one function, so
// the two can never drift. Each segment decays by its candidate's stored
// factor (segment.Candidate.Decay, at segment.DecayKM), or by exactly 1
// without a candidate.
func (m FidelityModel) PredictFidelity(segs []*Segment) float64 {
	if len(segs) == 0 {
		return 0
	}
	w := 1.0
	for _, s := range segs {
		w *= wernerOf(m.F0) * decayOf(s) * s.WernerScale()
	}
	sw := wernerOf(m.SwapF0)
	for i := 1; i < len(segs); i++ {
		w *= sw
	}
	return fidelityOf(w)
}

// decayOf is the factor transmission over s's route scales its Werner
// parameter by: its candidate's Decay, 1 without a candidate.
func decayOf(s *Segment) float64 {
	if s.Cand == nil {
		return 1
	}
	return s.Cand.Decay
}

// FloorSpec is a per-request fidelity-floor table: Default applies to every
// SD pair without an explicit entry, PerPair overrides it by pair index. A
// nil spec (or one with all-zero floors) disables floor enforcement.
type FloorSpec struct {
	// Default is the floor applied to pairs without a PerPair entry.
	Default float64
	// PerPair maps SD-pair index to its floor, overriding Default.
	PerPair map[int]float64
}

// Floor returns the fidelity floor of the SD pair (0 = unconstrained).
// A nil spec floors nothing.
func (f *FloorSpec) Floor(pair int) float64 {
	if f == nil {
		return 0
	}
	if v, ok := f.PerPair[pair]; ok {
		return v
	}
	return f.Default
}

// String renders the spec in the canonical form ParseFloorSpec accepts:
// the default floor (omitted when zero and per-pair entries exist),
// followed by pair=floor entries in ascending pair order.
func (f *FloorSpec) String() string {
	if f == nil {
		return ""
	}
	var parts []string
	if f.Default != 0 || len(f.PerPair) == 0 {
		parts = append(parts, strconv.FormatFloat(f.Default, 'g', -1, 64))
	}
	idx := make([]int, 0, len(f.PerPair))
	for i := range f.PerPair {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		parts = append(parts, fmt.Sprintf("%d=%s", i, strconv.FormatFloat(f.PerPair[i], 'g', -1, 64)))
	}
	return strings.Join(parts, ";")
}

// ParseFloorSpec parses a compact fidelity-floor spec: ';'-separated items,
// each either a bare floor in [0,1] (the default floor, at most once) or
// pair=floor for one SD pair. NaN, infinite and out-of-range floors are
// rejected with precise errors, as are duplicate entries.
//
//	0.8          every pair needs fidelity ≥ 0.8
//	0.8;3=0.95   pair 3 needs 0.95, everyone else 0.8
//	2=0.9        only pair 2 is floored
func ParseFloorSpec(s string) (*FloorSpec, error) {
	if s == "" {
		return nil, fmt.Errorf("qnet: empty fidelity-floor spec")
	}
	spec := &FloorSpec{}
	haveDefault := false
	for _, item := range strings.Split(s, ";") {
		if item == "" {
			return nil, fmt.Errorf("qnet: empty item in fidelity-floor spec %q", s)
		}
		if k, v, ok := strings.Cut(item, "="); ok {
			pair, err := strconv.Atoi(k)
			if err != nil {
				return nil, fmt.Errorf("qnet: bad pair index %q in fidelity-floor spec: %v", k, err)
			}
			if pair < 0 {
				return nil, fmt.Errorf("qnet: negative pair index %d in fidelity-floor spec", pair)
			}
			floor, err := parseFloor(v)
			if err != nil {
				return nil, err
			}
			if _, dup := spec.PerPair[pair]; dup {
				return nil, fmt.Errorf("qnet: duplicate floor for pair %d", pair)
			}
			if spec.PerPair == nil {
				spec.PerPair = make(map[int]float64)
			}
			spec.PerPair[pair] = floor
			continue
		}
		floor, err := parseFloor(item)
		if err != nil {
			return nil, err
		}
		if haveDefault {
			return nil, fmt.Errorf("qnet: duplicate default floor %q", item)
		}
		haveDefault = true
		spec.Default = floor
	}
	return spec, nil
}

func parseFloor(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("qnet: bad floor %q: %v", s, err)
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("qnet: floor %q is NaN", s)
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("qnet: floor %v out of range [0,1]", v)
	}
	return v, nil
}

// FloorPolicy is the fidelity-floor decision logic shared by every
// engine's stitch phase. For floored pairs segments are taken best-first
// by their Werner contribution, so one predicted-fidelity miss proves the
// pool cannot serve the floor over that route: callers mark the candidate
// floor-dead for the rest of the slot, which is sound because available
// inventory only shrinks as the stitch pass proceeds.
type FloorPolicy struct {
	floors *FloorSpec
	model  FidelityModel
}

// NewFloorPolicy builds the policy under the default fidelity model; a nil
// or all-zero spec yields an inactive policy whose Take degenerates to
// Pool.Take, keeping floor-disabled stitch loops byte-identical to
// pre-floor behavior.
func NewFloorPolicy(floors *FloorSpec) FloorPolicy {
	return FloorPolicy{floors: floors, model: DefaultFidelityModel()}
}

// Score orders a pair's available segments by their contribution to the
// composed Werner parameter (decayed by fibre length and banked age), so
// TakeBestAt maximizes the predicted end-to-end fidelity.
func (f FloorPolicy) Score(s *Segment) float64 {
	return s.WernerScale() * decayOf(s)
}

// TakeAt draws a segment of the pair of pool index i for the given
// commodity: best-first for floored pairs, historical FIFO order
// otherwise.
func (f FloorPolicy) TakeAt(pool *Pool, commodity, i int) *Segment {
	if f.floors.Floor(commodity) > 0 {
		return pool.TakeBestAt(i, f.Score)
	}
	return pool.TakeAt(i)
}

// Rejects reports whether the assembled segments' predicted fidelity
// misses the commodity's floor.
func (f FloorPolicy) Rejects(commodity int, segs []*Segment) bool {
	floor := f.floors.Floor(commodity)
	return floor > 0 && f.model.PredictFidelity(segs) < floor
}

// SwapOrder selects the order the stitch phase performs a connection's
// junction swaps in. Werner fidelity is swap-order-independent (the algebra
// is associative and commutative), but the order changes which connections
// survive and how many spare segments failed swaps burn.
type SwapOrder int

const (
	// SwapOrderPath swaps junctions in path order, source to destination
	// (the default; byte-identical to the pre-policy behavior).
	SwapOrderPath SwapOrder = iota
	// SwapOrderGreedy swaps the least reliable junction first (ascending
	// swap probability, ties by path position), the greedy order of the
	// NIST path-graph swapping study: doomed connections fail before their
	// reliable junctions consume rng draws and spare segments.
	SwapOrderGreedy
)

// String renders the order in the form ParseSwapOrder accepts.
func (o SwapOrder) String() string {
	switch o {
	case SwapOrderPath:
		return "path"
	case SwapOrderGreedy:
		return "greedy"
	}
	return fmt.Sprintf("SwapOrder(%d)", int(o))
}

// ParseSwapOrder parses a swap-order policy name.
func ParseSwapOrder(s string) (SwapOrder, error) {
	switch s {
	case "path":
		return SwapOrderPath, nil
	case "greedy":
		return SwapOrderGreedy, nil
	}
	return 0, fmt.Errorf("qnet: unknown swap order %q (want path or greedy)", s)
}
