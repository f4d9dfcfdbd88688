package chaos

import "see/internal/topo"

// Forecast is the planner-visible subset of a FaultPlan: the announced
// items (scheduled maintenance), excluding everything marked surprise with
// the spec's '!'. It is deliberately time-invariant and conservative —
// planners build their path sets and LP tables once at construction, so an
// element announced as failing at *any* slot of the plan is avoided for the
// whole run:
//
//   - an announced node outage zeroes the node's memory and kills its
//     incident links;
//   - an announced link outage or disc cut kills the link;
//   - an announced brownout keeps frac of the link's channels;
//   - an announced flap keeps the duty-cycle fraction round(duty·period)/period
//     of the link's channels (a zero up-cycle kills it).
//
// Multiple announced reductions on one link compose multiplicatively. The
// zero view is represented as nil; every method is nil-safe and then
// reports full capacity, so fault-aware engines built without chaos (or
// with an all-surprise plan) behave byte-identically to their fault-blind
// twins.
type Forecast struct {
	deadNode []bool
	deadLink []bool
	// frac is the per-link surviving channel fraction in [0, 1] from
	// announced brownouts and flaps (1 = untouched).
	frac    []float64
	avoided int
}

// Forecast builds the announced-outage view of the plan over the network.
// It returns nil when nothing is announced (nil/zero plan, or every item a
// surprise).
func (p *FaultPlan) Forecast(net *topo.Network) *Forecast {
	if p.IsZero() {
		return nil
	}
	f := &Forecast{
		deadNode: make([]bool, net.NumNodes()),
		deadLink: make([]bool, net.NumLinks()),
		frac:     make([]float64, net.NumLinks()),
	}
	for i := range f.frac {
		f.frac[i] = 1
	}
	for _, w := range p.NodeOutages {
		if !w.Surprise {
			f.deadNode[w.ID] = true
		}
	}
	for _, w := range p.LinkOutages {
		if !w.Surprise {
			f.deadLink[w.ID] = true
		}
	}
	for _, d := range p.DiscCuts {
		if d.Surprise {
			continue
		}
		for _, id := range DiscLinks(net, d.X, d.Y, d.R) {
			f.deadLink[id] = true
		}
	}
	for _, b := range p.Brownouts {
		if !b.Surprise {
			f.frac[b.Link] *= b.Frac
		}
	}
	for _, fl := range p.Flaps {
		if !fl.Surprise {
			f.frac[fl.Link] *= float64(fl.upSlots()) / float64(fl.Period)
		}
	}
	for v, dead := range f.deadNode {
		if dead {
			for _, id := range net.IncidentLinks(v) {
				f.deadLink[id] = true
			}
		}
	}
	for id := range f.frac {
		if f.frac[id] == 0 {
			f.deadLink[id] = true
		}
	}
	for _, dead := range f.deadNode {
		if dead {
			f.avoided++
		}
	}
	for id, dead := range f.deadLink {
		if dead || f.frac[id] < 1 {
			f.avoided++
		}
	}
	if f.avoided == 0 {
		return nil
	}
	return f
}

// Forecast returns the injector's announced-outage view (nil for an inert
// injector or an all-surprise plan), built once and cached.
func (in *Injector) Forecast() *Forecast {
	if !in.Active() {
		return nil
	}
	if !in.fcBuilt {
		in.fc = in.plan.Forecast(in.net)
		in.fcBuilt = true
	}
	return in.fc
}

// IsZero reports whether the forecast announces nothing.
func (f *Forecast) IsZero() bool { return f == nil || f.avoided == 0 }

// Channels maps a link's full channel count to its announced effective
// capacity: 0 when dead, floor(frac·full) when de-rated, full otherwise.
func (f *Forecast) Channels(id, full int) int {
	if f == nil {
		return full
	}
	if f.deadLink[id] {
		return 0
	}
	return int(float64(full) * f.frac[id])
}

// Memory maps a node's memory size to its announced effective capacity
// (0 when the node has an announced outage).
func (f *Forecast) Memory(v, full int) int {
	if f != nil && f.deadNode[v] {
		return 0
	}
	return full
}

// Avoided counts the announced elements a fault-aware planner routes
// around: dead nodes plus dead or de-rated links. Engines report it as
// sched.IncidentForecastAvoid.
func (f *Forecast) Avoided() int {
	if f == nil {
		return 0
	}
	return f.avoided
}
