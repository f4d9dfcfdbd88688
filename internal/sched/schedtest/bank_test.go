package schedtest

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"see/internal/core"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/state"
)

// bankProbe runs SEE's phases unchanged and, once the physical phase has
// realized the slot's segments into the Runner's reused arena, checks the
// segments the bank withdrew against a deep copy of the bank taken at the
// end of the previous slot.
type bankProbe struct {
	*core.Engine
	t         *testing.T
	retention float64
	prev      *state.BankState // the bank after the previous slot
	withdrawn int              // segments checked over the run
}

func (p *bankProbe) PhysicalHook(s *sched.Slot) {
	p.Engine.PhysicalHook(s)
	bank := p.Bank()
	slot, window := bank.Slot(), bank.Policy().CarrySlots
	// No decoherence hazard: exactly the entries inside the age window
	// survive the boundary, and they are withdrawn oldest first.
	var want []state.BankedSegment
	for _, bs := range p.prev.Entries {
		if slot-bs.Birth <= window {
			want = append(want, bs)
		}
	}
	slices.SortFunc(want, func(x, y state.BankedSegment) int {
		return cmp.Or(cmp.Compare(x.Birth, y.Birth), cmp.Compare(x.Seq, y.Seq))
	})
	if len(s.Withdrawn) != len(want) {
		p.t.Fatalf("slot %d: %d withdrawn segments, the bank held %d in the window", slot, len(s.Withdrawn), len(want))
	}
	for i, seg := range s.Withdrawn {
		w := want[i]
		birth, ok := seg.BankBirth()
		scale := math.Pow(p.retention, float64(slot-w.Birth))
		if seg.A != w.A || seg.B != w.B || seg.Cand == nil || !slices.Equal(seg.Cand.Path, w.Path) ||
			!ok || birth != w.Birth || seg.WernerScale() != scale {
			p.t.Fatalf("slot %d: withdrawn segment %d is ⟨%d,%d⟩ born %d (stamped %v) scale %v, the bank held %+v at scale %v",
				slot, i, seg.A, seg.B, birth, ok, seg.WernerScale(), w, scale)
		}
	}
	p.withdrawn += len(s.Withdrawn)
}

// TestBankedSegmentsSurviveArenaReuse runs a banked SEE engine (age window
// 2, Werner retention 0.9) for 30 slots. The bank must hold its segments
// by value: each slot's physical phase reuses the arena the previous
// slot's segments lived in, and the segments withdrawn into that slot
// must still be exactly what the bank held when the previous slot ended.
func TestBankedSegmentsSurviveArenaReuse(t *testing.T) {
	net, pairs, err := Instance(testNodes, testPairs, testSeed+9)
	if err != nil {
		t.Fatal(err)
	}
	const retention = 0.9
	eng, err := engines.New(sched.SEE, net, pairs, engines.Config{CarryOver: true, DecoherenceSlots: 2, CarryWernerRetention: retention})
	if err != nil {
		t.Fatal(err)
	}
	e := eng.(*core.Engine)
	p := &bankProbe{Engine: e, t: t, retention: retention, prev: e.Bank().State()}
	rng := NewRng(testSeed)
	created := 0
	for slot := 0; slot < 30; slot++ {
		res, err := e.Run(p, rng, sched.SlotResult{LPObjective: e.LP.Objective}, len(pairs))
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		created += res.SegmentsCreated
		if err := e.Bank().CheckConservation(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		p.prev = e.Bank().State()
	}
	t.Logf("checked %d withdrawn segments against %d created over 30 slots", p.withdrawn, created)
	if p.withdrawn == 0 || created == 0 {
		t.Fatalf("withdrew %d and created %d segments: the run never reused the arena under a carried segment", p.withdrawn, created)
	}
}
