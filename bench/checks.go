package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"see/internal/sched"
	"see/internal/serve"
)

// stream is one engine's slot sequence within a lane: the unit the
// cumulative capacity bound and the fidelity floor are checked over.
type stream struct {
	alg  sched.Algorithm
	inst *instance
	// floor is every pair's fidelity floor (0 = none).
	floor float64
	// cumulative bounds a pair's deliveries over the stream's first T
	// slots by T·Hard (carry-over) instead of by Hard in every slot.
	cumulative bool
	delivered  []int
	slots      int
}

func newStream(alg sched.Algorithm, inst *instance, floor float64, cumulative bool) *stream {
	return &stream{alg: alg, inst: inst, floor: floor, cumulative: cumulative, delivered: make([]int, len(inst.pairs))}
}

// maxReported bounds the failure messages a run prints.
const maxReported = 5

// recorder checks every slot a lane runs, hashes the slots of the lane's
// first ops into the digest, and tallies the counts the metrics need.
type recorder struct {
	op     int // index of the op in progress
	prefix int // ops the digest covers
	digest hash.Hash64
	buf    []byte

	opFailed bool     // a check failed during the current op
	messages []string // the first failures, for the report

	// Totals over every slot checked.
	slots, established int
	// Totals over the digest's ops, which repeat exactly for a seed.
	prefixSlots, prefixEstablished int
	// engineMs samples the engine slots' durations, at the reference host
	// speed hs measures.
	engineMs sample
	hs       *hostSpeed

	serveSlots, served, backlog, expired, rejected int
}

func newRecorder(prefix int, hs *hostSpeed) *recorder {
	return &recorder{prefix: prefix, digest: fnv.New64a(), hs: hs}
}

func (r *recorder) fail(format string, args ...any) {
	r.opFailed = true
	if len(r.messages) < maxReported {
		r.messages = append(r.messages, fmt.Sprintf("op %d: ", r.op)+fmt.Sprintf(format, args...))
	}
}

// slot checks one engine slot: PerPair sums to Established, which neither
// exceeds Assembled nor the connection list; every pair stays within its
// oracle bound; served requests never exceed established connections; no
// connection is below its floor. served < 0 means no server.
func (r *recorder) slot(st *stream, res *sched.SlotResult, served int, d time.Duration) {
	r.engineMs.add(r.hs.adjust(d))
	st.slots++
	r.slots++
	if res == nil {
		r.fail("%v returned no slot result", st.alg)
		return
	}
	r.established += res.Established
	if len(res.PerPair) != len(st.inst.pairs) {
		r.fail("%v reported %d pairs, want %d", st.alg, len(res.PerPair), len(st.inst.pairs))
		return
	}
	sum := 0
	for i, n := range res.PerPair {
		sum += n
		hard := st.inst.bounds[i].Hard
		if st.cumulative {
			st.delivered[i] += n
			if st.delivered[i] > st.slots*hard {
				r.fail("%v pair %d delivered %d in %d slots, above %d·Hard=%d", st.alg, i, st.delivered[i], st.slots, st.slots, st.slots*hard)
			}
		} else if n > hard {
			r.fail("%v pair %d established %d, above its oracle bound %d", st.alg, i, n, hard)
		}
	}
	switch {
	case sum != res.Established:
		r.fail("%v PerPair sums to %d, Established is %d", st.alg, sum, res.Established)
	case res.Established > res.Assembled:
		r.fail("%v established %d of %d assembled", st.alg, res.Established, res.Assembled)
	case len(res.Connections) != res.Established:
		r.fail("%v lists %d connections for %d established", st.alg, len(res.Connections), res.Established)
	case served > res.Established:
		r.fail("%v served %d requests with %d connections", st.alg, served, res.Established)
	}
	if st.floor > 0 {
		for _, c := range res.Connections {
			if c.Fidelity < st.floor {
				r.fail("%v delivered fidelity %.4f below the floor %.2f", st.alg, c.Fidelity, st.floor)
				break
			}
		}
	}
	if r.op >= r.prefix {
		return
	}
	r.prefixSlots++
	r.prefixEstablished += res.Established
	b := binary.AppendUvarint(r.buf[:0], uint64(st.alg))
	for _, n := range res.PerPair {
		b = binary.AppendUvarint(b, uint64(n))
	}
	b = binary.AppendVarint(b, int64(served))
	r.digest.Write(b)
	r.buf = b
}

// serve tallies one server slot.
func (r *recorder) serve(st *serve.SlotStats) {
	r.serveSlots++
	r.served += st.Served
	r.backlog += st.Backlog
	r.expired += st.Expired
	r.rejected += st.Rejected
}

// sum returns the digest of the prefix ops.
func (r *recorder) sum() string { return fmt.Sprintf("%016x", r.digest.Sum64()) }
