// Package chaos is the deterministic fault-injection substrate of the
// simulator. A FaultPlan describes, from a single seed, every failure the
// run will experience — node crash/recover windows, link down windows,
// correlated cuts, brownouts and flaps, and quantum-memory decoherence —
// and an Injector evaluates the plan slot by slot for one engine.
//
// Determinism contract: every fault decision is a pure function of
// (plan, slot, event sequence number), computed by hashing rather than by
// drawing from the engines' rng streams. Consequently
//
//   - a faulty run is exactly reproducible from (engine seed, fault plan),
//     and
//   - an Injector built from a zero FaultPlan is inert: engines gate all
//     chaos work on Active(), so their output is byte-identical to a run
//     with no injector attached at all.
//
// Engines consult the injector through the qnet.FaultModel hooks
// (CandidateBlocked / SegmentDecohered) and its CapAttempts brownout
// budget. A crashed node takes its incident links down with it (its
// optical switch and detectors are offline), which the injector
// precomputes per slot from the network adjacency.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"see/internal/segment"
	"see/internal/topo"
)

// Window is a half-open slot interval [From, To) during which one element
// (node or link) is down. To <= 0 means "down from From forever".
type Window struct {
	// ID is the node or link identifier.
	ID int
	// From is the first slot of the outage.
	From int
	// To is the first slot after recovery; <= 0 means no recovery.
	To int
	// Surprise excludes the outage from the announced Forecast (spec
	// marker '!'): the fault still happens, but planners are not told.
	Surprise bool
}

// Covers reports whether the window is down at the given slot.
func (w Window) Covers(slot int) bool {
	return coversAt(w.From, w.To, slot)
}

// coversAt is the shared half-open window test: [from, to), to <= 0 = ∞.
func coversAt(from, to, slot int) bool {
	return slot >= from && (to <= 0 || slot < to)
}

// windowsOverlap reports whether two half-open slot windows intersect
// (to <= 0 meaning "open-ended").
func windowsOverlap(f1, t1, f2, t2 int) bool {
	return (t2 <= 0 || f1 < t2) && (t1 <= 0 || f2 < t1)
}

// DiscCut is a correlated geographic failure: every link whose midpoint
// (the average of its endpoints' coordinates, in the same kilometre frame
// as topo.Network.Pos) lies inside the disc of radius R around (X, Y) is
// down for the window — the model of a fibre conduit cut severing every
// strand in a duct.
type DiscCut struct {
	// X, Y, R describe the disc in km. Boundary links (distance == R) are
	// inside.
	X, Y, R float64
	// From / To bound the outage window like Window.
	From, To int
	// Surprise excludes the cut from the announced Forecast.
	Surprise bool
}

// Covers reports whether the cut is active at the given slot.
func (d DiscCut) Covers(slot int) bool { return coversAt(d.From, d.To, slot) }

// Brownout is a partial-capacity failure: during the window the link keeps
// only Frac of its channels (floor of Frac × full capacity) per slot,
// enforced on the physical phase's creation attempts — the model of
// hardware degrading before it dies.
type Brownout struct {
	// Link is the affected link ID.
	Link int
	// Frac in [0, 1] is the surviving channel fraction.
	Frac float64
	// From / To bound the brownout window like Window.
	From, To int
	// Surprise excludes the brownout from the announced Forecast.
	Surprise bool
}

// Covers reports whether the brownout is active at the given slot.
func (b Brownout) Covers(slot int) bool { return coversAt(b.From, b.To, slot) }

// Flap is an oscillating link failure: within the window the link cycles
// deterministically with the given period, up for round(Duty·Period) slots
// then down for the rest of each cycle.
type Flap struct {
	// Link is the affected link ID.
	Link int
	// Period is the cycle length in slots (>= 1).
	Period int
	// Duty in [0, 1] is the up fraction of each cycle.
	Duty float64
	// From / To bound the flapping window like Window.
	From, To int
	// Surprise excludes the flap from the announced Forecast.
	Surprise bool
}

// Covers reports whether the flapping window is active at the given slot.
func (f Flap) Covers(slot int) bool { return coversAt(f.From, f.To, slot) }

// upSlots is the number of up slots per cycle.
func (f Flap) upSlots() int { return int(math.Round(f.Duty * float64(f.Period))) }

// DownAt reports whether the flap holds the link down at the given slot:
// the cycle phase is (slot − From) mod Period, up-first.
func (f Flap) DownAt(slot int) bool {
	if !f.Covers(slot) {
		return false
	}
	return (slot-f.From)%f.Period >= f.upSlots()
}

// FaultPlan is a complete, seeded failure schedule. The zero value injects
// nothing.
type FaultPlan struct {
	// Seed drives the decoherence hash stream.
	Seed int64
	// NodeOutages lists node crash windows (a crashed node also takes its
	// incident links down).
	NodeOutages []Window
	// LinkOutages lists link down windows.
	LinkOutages []Window
	// DiscCuts lists correlated geographic link failures.
	DiscCuts []DiscCut
	// Brownouts lists partial-capacity link windows.
	Brownouts []Brownout
	// Flaps lists oscillating link failures.
	Flaps []Flap
	// Decoherence is the per-slot probability that a realized entanglement
	// segment decoheres before the stitch phase can use it.
	Decoherence float64
}

// IsZero reports whether the plan injects no faults at all.
func (p *FaultPlan) IsZero() bool {
	return p == nil ||
		(len(p.NodeOutages) == 0 && len(p.LinkOutages) == 0 &&
			len(p.DiscCuts) == 0 && len(p.Brownouts) == 0 && len(p.Flaps) == 0 &&
			p.Decoherence == 0)
}

// Validate checks the plan against a network's node and link counts.
func (p *FaultPlan) Validate(numNodes, numLinks int) error {
	if p == nil {
		return nil
	}
	for _, w := range p.NodeOutages {
		if w.ID < 0 || w.ID >= numNodes {
			return fmt.Errorf("chaos: node outage id %d outside [0,%d)", w.ID, numNodes)
		}
		if w.To > 0 && w.To <= w.From {
			return fmt.Errorf("chaos: node %d outage window [%d,%d) is empty", w.ID, w.From, w.To)
		}
	}
	for _, w := range p.LinkOutages {
		if w.ID < 0 || w.ID >= numLinks {
			return fmt.Errorf("chaos: link outage id %d outside [0,%d)", w.ID, numLinks)
		}
		if w.To > 0 && w.To <= w.From {
			return fmt.Errorf("chaos: link %d outage window [%d,%d) is empty", w.ID, w.From, w.To)
		}
	}
	for _, b := range p.Brownouts {
		if b.Link < 0 || b.Link >= numLinks {
			return fmt.Errorf("chaos: brownout link id %d outside [0,%d)", b.Link, numLinks)
		}
	}
	for _, f := range p.Flaps {
		if f.Link < 0 || f.Link >= numLinks {
			return fmt.Errorf("chaos: flap link id %d outside [0,%d)", f.Link, numLinks)
		}
	}
	if p.Decoherence < 0 || p.Decoherence > 1 || math.IsNaN(p.Decoherence) {
		return fmt.Errorf("chaos: decoherence probability %v outside [0,1]", p.Decoherence)
	}
	return p.checkCorrelated()
}

// checkCorrelated validates the correlated generators without needing the
// network: finite disc geometry, fractions in [0,1], positive periods,
// non-empty windows, and — per element — non-overlapping windows of the
// same kind (two brownouts or two flaps on one link in the same slot would
// be ambiguous). Both ParseSpec and Validate run it, so a spec is rejected
// with a precise message before any engine is built.
func (p *FaultPlan) checkCorrelated() error {
	for _, d := range p.DiscCuts {
		if math.IsNaN(d.X) || math.IsInf(d.X, 0) || math.IsNaN(d.Y) || math.IsInf(d.Y, 0) {
			return fmt.Errorf("chaos: disc cut center (%v,%v) is not finite", d.X, d.Y)
		}
		if !(d.R >= 0) || math.IsInf(d.R, 0) {
			return fmt.Errorf("chaos: disc cut radius %v is negative or NaN", d.R)
		}
		if d.To > 0 && d.To <= d.From {
			return fmt.Errorf("chaos: disc cut window [%d,%d) is empty", d.From, d.To)
		}
	}
	for i, b := range p.Brownouts {
		if !(b.Frac >= 0 && b.Frac <= 1) {
			return fmt.Errorf("chaos: brownout on link %d has fraction %v outside [0,1]", b.Link, b.Frac)
		}
		if b.To > 0 && b.To <= b.From {
			return fmt.Errorf("chaos: link %d brownout window [%d,%d) is empty", b.Link, b.From, b.To)
		}
		for _, o := range p.Brownouts[:i] {
			if o.Link == b.Link && windowsOverlap(o.From, o.To, b.From, b.To) {
				return fmt.Errorf("chaos: link %d has overlapping brownout windows [%d,%s) and [%d,%s)",
					b.Link, o.From, windowEnd(o.To), b.From, windowEnd(b.To))
			}
		}
	}
	for i, f := range p.Flaps {
		if f.Period < 1 {
			return fmt.Errorf("chaos: flap on link %d has period %d (want >= 1)", f.Link, f.Period)
		}
		if !(f.Duty >= 0 && f.Duty <= 1) {
			return fmt.Errorf("chaos: flap on link %d has duty %v outside [0,1]", f.Link, f.Duty)
		}
		if f.To > 0 && f.To <= f.From {
			return fmt.Errorf("chaos: link %d flap window [%d,%d) is empty", f.Link, f.From, f.To)
		}
		for _, o := range p.Flaps[:i] {
			if o.Link == f.Link && windowsOverlap(o.From, o.To, f.From, f.To) {
				return fmt.Errorf("chaos: link %d has overlapping flap windows [%d,%s) and [%d,%s)",
					f.Link, o.From, windowEnd(o.To), f.From, windowEnd(f.To))
			}
		}
	}
	return nil
}

// windowEnd renders a window's end bound for error messages ("∞" when
// open-ended).
func windowEnd(to int) string {
	if to <= 0 {
		return "∞"
	}
	return strconv.Itoa(to)
}

// String renders the plan in the canonical spec grammar accepted by
// ParseSpec.
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, w := range p.NodeOutages {
		parts = append(parts, "node="+w.spec())
	}
	for _, w := range p.LinkOutages {
		parts = append(parts, "link="+w.spec())
	}
	for _, d := range p.DiscCuts {
		parts = append(parts, "cut:"+surpriseMark(d.Surprise)+
			fmt.Sprintf("%g,%g,%g", d.X, d.Y, d.R)+winSuffix(d.From, d.To))
	}
	for _, b := range p.Brownouts {
		parts = append(parts, "brown:"+surpriseMark(b.Surprise)+
			fmt.Sprintf("%d,%g", b.Link, b.Frac)+winSuffix(b.From, b.To))
	}
	for _, f := range p.Flaps {
		parts = append(parts, "flap:"+surpriseMark(f.Surprise)+
			fmt.Sprintf("%d,%d,%g", f.Link, f.Period, f.Duty)+winSuffix(f.From, f.To))
	}
	if p.Decoherence > 0 {
		parts = append(parts, fmt.Sprintf("decohere=%g", p.Decoherence))
	}
	return strings.Join(parts, ";")
}

func surpriseMark(s bool) string {
	if s {
		return "!"
	}
	return ""
}

// winSuffix renders the optional "@from-to" slot window (empty for the
// whole-run window).
func winSuffix(from, to int) string {
	if from == 0 && to <= 0 {
		return ""
	}
	toStr := ""
	if to > 0 {
		toStr = strconv.Itoa(to)
	}
	return fmt.Sprintf("@%d-%s", from, toStr)
}

func (w Window) spec() string {
	return surpriseMark(w.Surprise) + strconv.Itoa(w.ID) + winSuffix(w.From, w.To)
}

// ParseSpec parses the compact fault-spec grammar used by the -faults flag:
//
//	seed=7;node=3@2-5;node=4;link=10@1-;cut:50,75,20@3-;brown:2,0.5@1-9;flap:4,6,0.5;decohere=0.02
//
// key=value items are separated by ';' or ','; the correlated items
// (cut:x,y,r — disc cut in km coordinates; brown:link,frac — partial
// brownout; flap:link,period,duty — oscillating outage) carry commas in
// their values and therefore must be separated by ';'. Every outage item
// takes an optional slot window "@from-to"; omitting the window means
// "down for the whole run", omitting "to" means "down from <from> onward".
// A '!' immediately before an outage item's value marks it as a surprise —
// the fault still fires, but it is excluded from the announced Forecast
// (e.g. "node=!3@2-5", "cut:!50,75,20"). decohere is a probability in
// [0,1]. An empty string is the zero plan.
func ParseSpec(s string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, chunk := range strings.Split(s, ";") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		if kind, val, ok := correlatedItem(chunk); ok {
			if err := p.parseCorrelated(kind, val); err != nil {
				return nil, err
			}
			continue
		}
		for _, item := range strings.Split(chunk, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			if kind, _, ok := correlatedItem(item); ok {
				return nil, fmt.Errorf("chaos: %s item %q must be separated by ';' (its value contains commas)", kind, item)
			}
			if err := p.parseKeyValue(item); err != nil {
				return nil, err
			}
		}
	}
	if err := p.checkCorrelated(); err != nil {
		return nil, err
	}
	return p, nil
}

// correlatedItem splits a "kind:value" correlated-fault item; ok is false
// for the key=value grammar.
func correlatedItem(item string) (kind, val string, ok bool) {
	for _, k := range [...]string{"cut", "brown", "flap"} {
		if rest, found := strings.CutPrefix(item, k+":"); found {
			return k, rest, true
		}
	}
	return "", "", false
}

// parseKeyValue handles one classic key=value spec item.
func (p *FaultPlan) parseKeyValue(item string) error {
	key, val, ok := strings.Cut(item, "=")
	if !ok {
		return fmt.Errorf("chaos: spec item %q is not key=value (correlated faults use cut:, brown: or flap:)", item)
	}
	switch key {
	case "seed":
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("chaos: bad seed %q: %v", val, err)
		}
		p.Seed = v
	case "node", "link":
		w, err := parseWindow(val)
		if err != nil {
			return fmt.Errorf("chaos: bad %s spec %q: %v", key, val, err)
		}
		if key == "node" {
			p.NodeOutages = append(p.NodeOutages, w)
		} else {
			p.LinkOutages = append(p.LinkOutages, w)
		}
	case "decohere":
		v, err := strconv.ParseFloat(val, 64)
		// NaN slips through a plain range check (every comparison is
		// false), so reject it via the negated form.
		if err != nil || !(v >= 0 && v <= 1) {
			return fmt.Errorf("chaos: bad %s probability %q (want [0,1])", key, val)
		}
		p.Decoherence = v
	default:
		return fmt.Errorf("chaos: unknown spec key %q (want seed, node, link or decohere)", key)
	}
	return nil
}

// parseCorrelated handles one cut:/brown:/flap: item body (the part after
// the kind prefix).
func (p *FaultPlan) parseCorrelated(kind, val string) error {
	spec := kind + ":" + val
	surprise := strings.HasPrefix(val, "!")
	if surprise {
		val = val[1:]
	}
	body, win, hasWin := strings.Cut(val, "@")
	var from, to int
	if hasWin {
		var err error
		if from, to, err = parseSlotWindow(win); err != nil {
			return fmt.Errorf("chaos: bad %s spec %q: %v", kind, spec, err)
		}
	}
	fields := strings.Split(body, ",")
	num := func(i int) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 64)
		if err != nil {
			return 0, fmt.Errorf("chaos: bad %s spec %q: field %q is not a number", kind, spec, strings.TrimSpace(fields[i]))
		}
		return v, nil
	}
	linkID := func(i int) (int, error) {
		id, err := strconv.Atoi(strings.TrimSpace(fields[i]))
		if err != nil || id < 0 {
			return 0, fmt.Errorf("chaos: bad %s spec %q: bad link id %q", kind, spec, strings.TrimSpace(fields[i]))
		}
		return id, nil
	}
	switch kind {
	case "cut":
		if len(fields) != 3 {
			return fmt.Errorf("chaos: bad cut spec %q: want cut:x,y,r[@from-to]", spec)
		}
		x, err := num(0)
		if err != nil {
			return err
		}
		y, err := num(1)
		if err != nil {
			return err
		}
		r, err := num(2)
		if err != nil {
			return err
		}
		p.DiscCuts = append(p.DiscCuts, DiscCut{X: x, Y: y, R: r, From: from, To: to, Surprise: surprise})
	case "brown":
		if len(fields) != 2 {
			return fmt.Errorf("chaos: bad brown spec %q: want brown:link,frac[@from-to]", spec)
		}
		link, err := linkID(0)
		if err != nil {
			return err
		}
		frac, err := num(1)
		if err != nil {
			return err
		}
		p.Brownouts = append(p.Brownouts, Brownout{Link: link, Frac: frac, From: from, To: to, Surprise: surprise})
	case "flap":
		if len(fields) != 3 {
			return fmt.Errorf("chaos: bad flap spec %q: want flap:link,period,duty[@from-to]", spec)
		}
		link, err := linkID(0)
		if err != nil {
			return err
		}
		period, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return fmt.Errorf("chaos: bad flap spec %q: bad period %q", spec, strings.TrimSpace(fields[1]))
		}
		duty, err := num(2)
		if err != nil {
			return err
		}
		p.Flaps = append(p.Flaps, Flap{Link: link, Period: period, Duty: duty, From: from, To: to, Surprise: surprise})
	}
	return nil
}

func parseWindow(s string) (Window, error) {
	w := Window{}
	if strings.HasPrefix(s, "!") {
		w.Surprise = true
		s = s[1:]
	}
	idStr, win, hasWin := strings.Cut(s, "@")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 {
		return Window{}, fmt.Errorf("bad element id %q", idStr)
	}
	w.ID = id
	if !hasWin {
		return w, nil
	}
	if w.From, w.To, err = parseSlotWindow(win); err != nil {
		return Window{}, err
	}
	return w, nil
}

// parseSlotWindow parses the "from-to" window suffix (to empty =
// open-ended).
func parseSlotWindow(win string) (from, to int, err error) {
	fromStr, toStr, ok := strings.Cut(win, "-")
	if !ok {
		return 0, 0, fmt.Errorf("window %q is not from-to", win)
	}
	if from, err = strconv.Atoi(fromStr); err != nil || from < 0 {
		return 0, 0, fmt.Errorf("bad window start %q", fromStr)
	}
	if toStr != "" {
		if to, err = strconv.Atoi(toStr); err != nil || to <= from {
			return 0, 0, fmt.Errorf("bad window end %q (must exceed start)", toStr)
		}
	}
	return from, to, nil
}

// Counts tallies the faults an Injector has injected so far.
type Counts struct {
	// NodeSlotsDown / LinkSlotsDown accumulate (element, slot) outage
	// pairs over the slots begun so far.
	NodeSlotsDown int
	LinkSlotsDown int
	// RoutesBlocked counts candidate routes whose reserved creation
	// attempts all failed because a node or link on the route was down.
	RoutesBlocked int
	// SegmentsDecohered counts realized segments destroyed by memory
	// decoherence before the stitch phase.
	SegmentsDecohered int
	// CutLinkSlotsDown accumulates (link, slot) outage pairs injected by
	// geographic disc cuts (links already down for another reason are not
	// re-counted).
	CutLinkSlotsDown int
	// FlapSlotsDown accumulates (link, slot) down pairs injected by link
	// flapping.
	FlapSlotsDown int
	// BrownoutAttemptsLost counts segment-creation attempts denied because
	// a browned-out link's per-slot channel budget was exhausted.
	BrownoutAttemptsLost int
}

// Total sums every injected-fault counter.
func (c Counts) Total() int {
	return c.NodeSlotsDown + c.LinkSlotsDown +
		c.RoutesBlocked + c.SegmentsDecohered +
		c.CutLinkSlotsDown + c.FlapSlotsDown + c.BrownoutAttemptsLost
}

// Sub returns the field-wise difference c − b. Engines snapshot the counts
// before BeginSlot and subtract after the physical phase to attribute a
// slot's brownout and flap damage to the right incident kinds.
func (c Counts) Sub(b Counts) Counts {
	return Counts{
		NodeSlotsDown:        c.NodeSlotsDown - b.NodeSlotsDown,
		LinkSlotsDown:        c.LinkSlotsDown - b.LinkSlotsDown,
		RoutesBlocked:        c.RoutesBlocked - b.RoutesBlocked,
		SegmentsDecohered:    c.SegmentsDecohered - b.SegmentsDecohered,
		CutLinkSlotsDown:     c.CutLinkSlotsDown - b.CutLinkSlotsDown,
		FlapSlotsDown:        c.FlapSlotsDown - b.FlapSlotsDown,
		BrownoutAttemptsLost: c.BrownoutAttemptsLost - b.BrownoutAttemptsLost,
	}
}

// Injector evaluates one FaultPlan for one engine, slot by slot. It is not
// safe for concurrent use; build one injector per engine (the experiment
// harness builds per-trial engines, so each trial owns its injectors).
// All methods are safe on a nil receiver, which behaves as "no faults".
type Injector struct {
	plan   FaultPlan
	net    *topo.Network
	active bool

	slot     int
	downNode []bool
	downLink []bool
	decoSeq  int
	counts   Counts

	// cutLinks caches, per DiscCut, the IDs of the links its disc covers.
	cutLinks [][]int
	// brownLeft is the per-link remaining attempt budget of the current
	// slot (−1 = uncapped); reset by BeginSlot, consumed by CapAttempts.
	brownLeft []int
	// fc caches the announced-outage Forecast (built on first use).
	fc      *Forecast
	fcBuilt bool
}

// NewInjector builds an injector for the plan over the network. A nil or
// zero plan yields an inert injector (Active() == false). The plan is
// validated against the network.
func NewInjector(plan *FaultPlan, net *topo.Network) (*Injector, error) {
	in := &Injector{slot: -1, net: net}
	if plan != nil {
		if err := plan.Validate(net.NumNodes(), net.NumLinks()); err != nil {
			return nil, err
		}
		in.plan = *plan
	}
	in.active = !in.plan.IsZero()
	in.downNode = make([]bool, net.NumNodes())
	in.downLink = make([]bool, net.NumLinks())
	in.brownLeft = make([]int, net.NumLinks())
	for i := range in.brownLeft {
		in.brownLeft[i] = -1
	}
	in.cutLinks = make([][]int, len(in.plan.DiscCuts))
	for i, d := range in.plan.DiscCuts {
		in.cutLinks[i] = DiscLinks(net, d.X, d.Y, d.R)
	}
	return in, nil
}

// DiscLinks returns, sorted ascending, the IDs of every link whose midpoint
// (average of its endpoints' coordinates) lies inside the disc of radius r
// around (x, y), boundary included. Both the injector (to realize disc
// cuts) and the Forecast (to tell planners about announced ones) resolve
// discs through it, so the two views agree link-for-link.
func DiscLinks(net *topo.Network, x, y, r float64) []int {
	var out []int
	for u := 0; u < net.NumNodes(); u++ {
		for _, e := range net.G.Neighbors(u) {
			if e.To <= u {
				continue // visit each undirected link once, from its lower endpoint
			}
			mx := (net.Pos[u][0] + net.Pos[e.To][0]) / 2
			my := (net.Pos[u][1] + net.Pos[e.To][1]) / 2
			if (mx-x)*(mx-x)+(my-y)*(my-y) <= r*r {
				out = append(out, e.ID)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Active reports whether the injector can ever inject a fault. Engines gate
// every chaos code path on it so inert injectors cost (and change) nothing.
func (in *Injector) Active() bool { return in != nil && in.active }

// BeginSlot advances to the next slot and recomputes the down sets. Engines
// call it at the top of RunSlot. It returns the new slot index.
func (in *Injector) BeginSlot() int {
	if in == nil {
		return -1
	}
	in.slot++
	in.decoSeq = 0
	if !in.active {
		return in.slot
	}
	in.applyFaults(true)
	return in.slot
}

// applyFaults rebuilds the down sets and brownout budgets for the current
// slot. BeginSlot counts the injected (element, slot) outage pairs; Restore
// replays the same computation with count=false because the original
// BeginSlot already accounted for them.
func (in *Injector) applyFaults(count bool) {
	for i := range in.downNode {
		in.downNode[i] = false
	}
	for i := range in.downLink {
		in.downLink[i] = false
	}
	for i := range in.brownLeft {
		in.brownLeft[i] = -1
	}
	if in.slot < 0 {
		return
	}
	for _, w := range in.plan.NodeOutages {
		if w.Covers(in.slot) && !in.downNode[w.ID] {
			in.downNode[w.ID] = true
			if count {
				in.counts.NodeSlotsDown++
			}
			// The crashed node's optical switch and detectors are offline,
			// so every incident link is unusable too.
			for _, id := range in.net.IncidentLinks(w.ID) {
				in.downLink[id] = true
			}
		}
	}
	for _, w := range in.plan.LinkOutages {
		if w.Covers(in.slot) && !in.downLink[w.ID] {
			in.downLink[w.ID] = true
			if count {
				in.counts.LinkSlotsDown++
			}
		}
	}
	for ci, d := range in.plan.DiscCuts {
		if !d.Covers(in.slot) {
			continue
		}
		for _, id := range in.cutLinks[ci] {
			if !in.downLink[id] {
				in.downLink[id] = true
				if count {
					in.counts.CutLinkSlotsDown++
				}
			}
		}
	}
	for _, f := range in.plan.Flaps {
		if f.DownAt(in.slot) && !in.downLink[f.Link] {
			in.downLink[f.Link] = true
			if count {
				in.counts.FlapSlotsDown++
			}
		}
	}
	for _, b := range in.plan.Brownouts {
		if b.Covers(in.slot) && !in.downLink[b.Link] {
			in.brownLeft[b.Link] = int(float64(in.net.Channels[b.Link]) * b.Frac)
		}
	}
}

// CapAttempts implements qnet.CapacityModel: it bounds a candidate's
// granted creation attempts by the remaining per-slot channel budget of
// every browned-out link on its route, charges the grant against those
// budgets, and counts the denied attempts. Routes crossing no browned-out
// link are granted everything untouched, so brownout-free plans keep runs
// byte-identical.
func (in *Injector) CapAttempts(c *segment.Candidate, want int) int {
	if !in.Active() || want <= 0 {
		return want
	}
	grant := want
	capped := false
	for _, id := range c.EdgeIDs {
		if in.brownLeft[id] >= 0 {
			capped = true
			if in.brownLeft[id] < grant {
				grant = in.brownLeft[id]
			}
		}
	}
	if !capped {
		return want
	}
	for _, id := range c.EdgeIDs {
		if in.brownLeft[id] >= 0 {
			in.brownLeft[id] -= grant
		}
	}
	if grant < want {
		in.counts.BrownoutAttemptsLost += want - grant
	}
	return grant
}

// CandidateBlocked implements qnet.FaultModel: a creation attempt over the
// candidate fails outright when any physical node (endpoint or all-optical
// interior) or link of its route is down. Blocked attempts are counted.
func (in *Injector) CandidateBlocked(c *segment.Candidate) bool {
	if !in.Active() {
		return false
	}
	for _, v := range c.Path {
		if in.downNode[v] {
			in.counts.RoutesBlocked++
			return true
		}
	}
	for _, id := range c.EdgeIDs {
		if in.downLink[id] {
			in.counts.RoutesBlocked++
			return true
		}
	}
	return false
}

// SegmentDecohered implements qnet.FaultModel: realized segment number seq
// of the current slot decoheres with the plan's probability, decided by
// hashing (plan seed, slot, seq) — never by the engine's rng.
func (in *Injector) SegmentDecohered() bool {
	if !in.Active() || in.plan.Decoherence <= 0 {
		return false
	}
	seq := in.decoSeq
	in.decoSeq++
	if Hash01(in.plan.Seed, 0xdec0, in.slot, seq) < in.plan.Decoherence {
		in.counts.SegmentsDecohered++
		return true
	}
	return false
}

// Counts returns the injected-fault tallies so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// Hash01 maps (seed, kind, slot, seq) to a uniform-ish value in [0, 1)
// with a SplitMix64-style finalizer. The kind argument namespaces
// independent decision streams (the injector uses 0xdec0 for segment
// decoherence); other deterministic subsystems — e.g. the cross-slot state
// bank in internal/state — share the scheme under their own kinds so every
// stochastic decision outside the engines' rng streams is reproducible
// from (seed, kind, slot, seq) alone.
func Hash01(seed int64, kind, slot, seq int) float64 {
	z := uint64(seed) ^ uint64(kind)<<48 ^ uint64(uint32(slot))<<16 ^ uint64(uint32(seq))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
