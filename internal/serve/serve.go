// Package serve turns the slot pipeline into a long-lived entanglement
// traffic server: an arrival process (internal: Process) generates
// connection requests from a fixed user population, an admission controller
// bounds the active set, and each slot the underlying sched.Engine's
// established connections serve the queued requests of their SD pairs in
// QoS-class priority order. Requests that outlive their class deadline
// expire; per-user and per-class service statistics accumulate alongside
// raw throughput so fairness (Jain's index) is reported next to it.
//
// The server is a deterministic function of its Config and one rng stream:
// every stochastic decision — arrival counts, user and class draws, the
// engine's slot internals — consumes from the same xrand.Stream, so an rng
// cursor plus the serialized server state (see snapshot.go) pins the whole
// remaining run. That is the contract service-mode checkpointing relies on:
// kill the process, restore, and the per-slot statistics are byte-identical
// to the uninterrupted run.
package serve

import (
	"errors"
	"fmt"
	"math"

	"see/internal/metrics"
	"see/internal/sched"
	"see/internal/xrand"
)

// Class is a request's QoS tier. Lower values are served first.
type Class int

// The three QoS tiers, in service-priority order.
const (
	Gold Class = iota
	Silver
	Bronze
	// NumClasses counts the tiers.
	NumClasses = 3
)

// String names the tier.
func (c Class) String() string {
	switch c {
	case Gold:
		return "gold"
	case Silver:
		return "silver"
	case Bronze:
		return "bronze"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Request is one admitted end-to-end entanglement request.
type Request struct {
	// ID is the admission-order sequence number (globally unique).
	ID int
	// User identifies the requester within the population.
	User int
	// Pair is the SD-pair index the user is statically bound to.
	Pair int
	// Class is the QoS tier.
	Class Class
	// Arrived is the slot the request arrived in.
	Arrived int
	// Deadline is the first slot the request is no longer serviceable in
	// (Arrived + its class TTL); it expires at the start of that slot.
	Deadline int
}

// Config parameterizes a traffic server. ParseSpec builds one from a
// command-line arrival spec; the zero value is not valid.
type Config struct {
	// Process generates per-slot arrival counts.
	Process Process
	// Users is the population size, 1 to 2^20. Each user is statically
	// bound to the SD pair user mod pairs, so per-user service totals are
	// comparable.
	Users int
	// Mix is the class distribution of arrivals (normalized by New).
	Mix [NumClasses]float64
	// Deadline is the per-class time-to-live in slots: a class-c request
	// arriving in slot s is serviceable in slots s..s+Deadline[c]-1.
	Deadline [NumClasses]int
	// MaxActive bounds the number of queued requests; arrivals beyond it
	// are rejected at admission (0 = unbounded).
	MaxActive int
	// Seed initializes the server's rng stream.
	Seed int64
	// Tracer, when non-nil, is the pipeline tracer whose counters are
	// included in checkpoints and restored on resume. It must be the same
	// tracer wired into the engine's construction.
	Tracer *sched.CountingTracer
}

// ClassCounts accumulates one QoS tier's lifecycle counters.
type ClassCounts struct {
	// Arrived counts requests generated for this class.
	Arrived int
	// Admitted counts arrivals that passed admission.
	Admitted int
	// Rejected counts arrivals refused by the MaxActive bound.
	Rejected int
	// Expired counts admitted requests that outlived their deadline.
	Expired int
	// Served counts admitted requests delivered an end-to-end connection.
	Served int
	// LatencySum totals (service slot − arrival slot) over served
	// requests.
	LatencySum float64
}

// SlotStats reports one slot of service activity; seesim renders one
// deterministic output line per SlotStats.
type SlotStats struct {
	// Slot is the slot index.
	Slot int
	// Arrived is the number of requests generated this slot.
	Arrived int
	// Admitted / Rejected split Arrived at the admission controller.
	Admitted int
	Rejected int
	// Expired counts requests that hit their deadline at slot start.
	Expired int
	// Served counts requests delivered this slot.
	Served int
	// Established is the engine's raw connection count (≥ Served; the
	// excess found no queued request on its pair).
	Established int
	// Backlog is the number of requests still queued after the slot.
	Backlog int
}

// Server drives a sched.Engine as a long-lived traffic server. Build one
// with New; it is not safe for concurrent use.
type Server struct {
	eng    sched.Engine
	pairs  int
	cfg    Config
	stream *xrand.Stream

	slot          int         // next slot index
	nextID        int         // next request ID
	queues        [][]Request // admitted, per SD pair, in ID order
	class         [NumClasses]ClassCounts
	userArrived   []int
	userServed    []int
	established   int // engine connections over the whole run
	floorRejected int // stitch assemblies rolled back by fidelity floors
	// nextExpiry[i] is a lower bound on every deadline in queues[i], so
	// a slot before it expires nothing there and skips the queue. It
	// derives from the queues alone: 0, as after New or a restore, makes
	// the next slot scan the queue and recompute it.
	nextExpiry []int
	// stats is the report RunSlot returns, reused every slot.
	stats SlotStats
}

// New builds a traffic server over an engine serving `pairs` SD pairs.
func New(eng sched.Engine, pairs int, cfg Config) (*Server, error) {
	if eng == nil {
		return nil, errors.New("serve: nil engine")
	}
	if pairs <= 0 {
		return nil, fmt.Errorf("serve: %d SD pairs", pairs)
	}
	if cfg.Process == nil {
		return nil, errors.New("serve: nil arrival process")
	}
	if cfg.Users <= 0 || cfg.Users > maxUsers {
		return nil, fmt.Errorf("serve: Users %d outside [1,%d]", cfg.Users, maxUsers)
	}
	if cfg.MaxActive < 0 {
		return nil, fmt.Errorf("serve: negative MaxActive %d", cfg.MaxActive)
	}
	sum := 0.0
	for c, m := range cfg.Mix {
		if m < 0 || math.IsNaN(m) {
			return nil, fmt.Errorf("serve: class mix %v has a negative share", cfg.Mix)
		}
		sum += m
		if cfg.Deadline[c] < 1 {
			return nil, fmt.Errorf("serve: %v deadline %d is not a positive slot count", Class(c), cfg.Deadline[c])
		}
	}
	if sum <= 0 {
		return nil, fmt.Errorf("serve: class mix %v sums to zero", cfg.Mix)
	}
	for c := range cfg.Mix {
		cfg.Mix[c] /= sum
	}
	return &Server{
		eng:         eng,
		pairs:       pairs,
		cfg:         cfg,
		stream:      xrand.NewStream(cfg.Seed),
		queues:      make([][]Request, pairs),
		nextExpiry:  make([]int, pairs),
		userArrived: make([]int, cfg.Users),
		userServed:  make([]int, cfg.Users),
	}, nil
}

// Slot returns the next slot index (equal to the number of slots run).
func (s *Server) Slot() int { return s.slot }

// Fingerprint identifies the server configuration a checkpoint belongs to.
// Restore refuses state whose fingerprint differs: resuming under a changed
// topology, algorithm, population or arrival process would silently produce
// a run that matches neither the old nor a fresh one.
func (s *Server) Fingerprint() string {
	return fmt.Sprintf("serve/v1 alg=%s pairs=%d proc=%s users=%d mix=%g/%g/%g deadline=%d/%d/%d max-active=%d seed=%d",
		s.eng.Algorithm(), s.pairs, s.cfg.Process,
		s.cfg.Users, s.cfg.Mix[Gold], s.cfg.Mix[Silver], s.cfg.Mix[Bronze],
		s.cfg.Deadline[Gold], s.cfg.Deadline[Silver], s.cfg.Deadline[Bronze],
		s.cfg.MaxActive, s.cfg.Seed)
}

// RunSlot advances the server one slot: expire, admit arrivals, run the
// engine, serve queues in class-priority order. The returned report is
// the server's own, overwritten by the next RunSlot: copy it to keep it.
func (s *Server) RunSlot() (*SlotStats, error) {
	slot := s.slot
	s.stats = SlotStats{Slot: slot}
	stats := &s.stats

	// Expiry happens at slot start: a request whose deadline is this slot
	// had Deadline−Arrived full slots of service opportunity. A queue is
	// scanned only once a deadline may have come, and compacted only from
	// its first expired request, so one with nothing expiring is never
	// copied.
	for i, q := range s.queues {
		if slot < s.nextExpiry[i] {
			continue
		}
		next := math.MaxInt
		first := 0
		for ; first < len(q) && slot < q[first].Deadline; first++ {
			next = min(next, q[first].Deadline)
		}
		if first < len(q) {
			kept := q[:first]
			for k := first; k < len(q); k++ {
				r := &q[k]
				if slot >= r.Deadline {
					s.class[r.Class].Expired++
					stats.Expired++
					continue
				}
				next = min(next, r.Deadline)
				kept = append(kept, *r)
			}
			s.queues[i] = kept
		}
		s.nextExpiry[i] = next
	}

	// Arrivals and admission. Draw order (count, then user and class per
	// request) is fixed; the rng cursor therefore pins the sequence.
	active := s.backlog()
	n := s.cfg.Process.Arrivals(s.stream.Rand(), slot)
	for k := 0; k < n; k++ {
		user := s.stream.Rand().Intn(s.cfg.Users)
		class := s.drawClass()
		stats.Arrived++
		s.class[class].Arrived++
		s.userArrived[user]++
		if s.cfg.MaxActive > 0 && active >= s.cfg.MaxActive {
			s.class[class].Rejected++
			stats.Rejected++
			continue
		}
		r := Request{
			ID:       s.nextID,
			User:     user,
			Pair:     user % s.pairs,
			Class:    class,
			Arrived:  slot,
			Deadline: slot + s.cfg.Deadline[class],
		}
		s.nextID++
		s.queues[r.Pair] = append(s.queues[r.Pair], r)
		s.nextExpiry[r.Pair] = min(s.nextExpiry[r.Pair], r.Deadline)
		s.class[class].Admitted++
		stats.Admitted++
		active++
	}

	// One pipeline slot; its connections are this slot's service capacity.
	res, err := s.eng.RunSlot(s.stream.Rand())
	if err != nil {
		return nil, fmt.Errorf("serve: slot %d: %w", slot, err)
	}
	if len(res.PerPair) != s.pairs {
		return nil, fmt.Errorf("serve: engine served %d pairs, server has %d", len(res.PerPair), s.pairs)
	}
	s.established += res.Established
	s.floorRejected += res.FloorRejected
	stats.Established = res.Established

	for i, conns := range res.PerPair {
		stats.Served += s.servePair(i, conns, slot)
	}
	stats.Backlog = s.backlog()
	s.slot++
	return stats, nil
}

// Run advances the server `slots` slots, invoking onSlot (if non-nil) after
// each. onSlot returning an error stops the run; the server remains at a
// clean slot boundary and can be checkpointed or continued.
func (s *Server) Run(slots int, onSlot func(*SlotStats) error) error {
	if slots < 0 {
		return fmt.Errorf("serve: negative slot count %d", slots)
	}
	for k := 0; k < slots; k++ {
		stats, err := s.RunSlot()
		if err != nil {
			return err
		}
		if onSlot != nil {
			if err := onSlot(stats); err != nil {
				return err
			}
		}
	}
	return nil
}

// drawClass samples the QoS tier from the configured mix.
func (s *Server) drawClass() Class {
	x := s.stream.Rand().Float64()
	acc := 0.0
	for c := Class(0); c < NumClasses-1; c++ {
		acc += s.cfg.Mix[c]
		if x < acc {
			return c
		}
	}
	return NumClasses - 1
}

// servePair delivers up to `conns` requests from pair i's queue, highest
// class first and FIFO within a class, and returns the number served. The
// first pass sizes each class's share of the connections in priority
// order; the second serves the first take[c] class-c requests in queue
// (ID) order, so latencies accumulate in arrival order.
func (s *Server) servePair(i, conns, slot int) int {
	q := s.queues[i]
	if conns <= 0 || len(q) == 0 {
		return 0
	}
	var take [NumClasses]int
	for _, r := range q {
		take[r.Class]++
	}
	left := conns
	for c := range take {
		take[c] = min(take[c], left)
		left -= take[c]
	}
	kept := q[:0]
	for _, r := range q {
		if take[r.Class] == 0 {
			kept = append(kept, r)
			continue
		}
		take[r.Class]--
		s.class[r.Class].Served++
		s.class[r.Class].LatencySum += float64(slot - r.Arrived)
		s.userServed[r.User]++
	}
	s.queues[i] = kept
	return conns - left
}

// backlog counts queued requests across all pairs.
func (s *Server) backlog() int {
	n := 0
	for i := range s.queues {
		n += len(s.queues[i])
	}
	return n
}

// ClassReport summarizes one QoS tier over a run.
type ClassReport struct {
	ClassCounts
	// ServiceRate is Served / Arrived (0 when nothing arrived).
	ServiceRate float64
	// MeanLatency is the average slots-to-service of served requests.
	MeanLatency float64
}

// Report summarizes a run. Every field derives from state a checkpoint
// carries, so a resumed server's final report equals the uninterrupted
// run's.
type Report struct {
	// Slots is the number of slots run.
	Slots int
	// Arrived, Admitted, Rejected, Expired, Served total the request
	// lifecycle across classes.
	Arrived  int
	Admitted int
	Rejected int
	Expired  int
	Served   int
	// Backlog is the number of requests still queued.
	Backlog int
	// Established is the engine's total connection count (service capacity
	// offered; Served is the part that met demand).
	Established int
	// FloorRejected is the engine's total count of candidate assemblies
	// rolled back because their predicted fidelity missed the request
	// floor (zero when no floors are configured).
	FloorRejected int
	// Throughput is Served per slot.
	Throughput float64
	// Fairness is Jain's index over per-user served counts, restricted to
	// users that generated at least one request (1.0 = perfectly even).
	Fairness float64
	// PerClass breaks the lifecycle down by QoS tier.
	PerClass [NumClasses]ClassReport
}

// Report summarizes the run so far.
func (s *Server) Report() *Report {
	r := &Report{Slots: s.slot, Backlog: s.backlog(), Established: s.established, FloorRejected: s.floorRejected}
	for c := range s.class {
		cc := s.class[c]
		cr := ClassReport{ClassCounts: cc}
		if cc.Arrived > 0 {
			cr.ServiceRate = float64(cc.Served) / float64(cc.Arrived)
		}
		if cc.Served > 0 {
			cr.MeanLatency = cc.LatencySum / float64(cc.Served)
		}
		r.PerClass[c] = cr
		r.Arrived += cc.Arrived
		r.Admitted += cc.Admitted
		r.Rejected += cc.Rejected
		r.Expired += cc.Expired
		r.Served += cc.Served
	}
	if s.slot > 0 {
		r.Throughput = float64(r.Served) / float64(s.slot)
	}
	var served []float64
	for u, n := range s.userArrived {
		if n > 0 {
			served = append(served, float64(s.userServed[u]))
		}
	}
	r.Fairness = metrics.JainIndex(served)
	return r
}
