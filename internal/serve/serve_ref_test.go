package serve

import (
	"math/rand"
	"reflect"
	"testing"
)

// servePairReference is the map-marking servePair the class-count version
// replaced, kept verbatim: TestServePairMatchesReference pins the two to
// the same served set, the same latency order and the same survivors.
func (s *Server) servePairReference(i, conns, slot int) int {
	q := s.queues[i]
	if conns <= 0 || len(q) == 0 {
		return 0
	}
	serve := make(map[int]bool, conns)
	for c := Class(0); c < NumClasses && len(serve) < conns; c++ {
		for j, r := range q {
			if len(serve) >= conns {
				break
			}
			if r.Class == c && !serve[j] {
				serve[j] = true
			}
		}
	}
	kept := q[:0]
	for j, r := range q {
		if !serve[j] {
			kept = append(kept, r)
			continue
		}
		s.class[r.Class].Served++
		s.class[r.Class].LatencySum += float64(slot - r.Arrived)
		s.userServed[r.User]++
	}
	s.queues[i] = kept
	return len(serve)
}

// TestServePairMatchesReference serves random mixed-class queues (empty,
// single-class and tie-heavy ones included) with random connection counts,
// zero and over-capacity among them, and checks servePair leaves exactly
// the server state servePairReference does. LatencySum is compared bit for
// bit, so the order latencies are added in matters too.
func TestServePairMatchesReference(t *testing.T) {
	const users = 7
	rng := rand.New(rand.NewSource(27))
	newServer := func(q []Request) *Server {
		cfg, err := ParseSpec("poisson")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Users = users
		srv, err := New(&fixedEngine{perPair: []int{0}}, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.queues[0] = append([]Request(nil), q...)
		return srv
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12)
		classes := 1 + rng.Intn(NumClasses)
		q := make([]Request, n)
		for j := range q {
			q[j] = Request{
				ID:      j,
				User:    rng.Intn(users),
				Class:   Class(rng.Intn(classes)),
				Arrived: rng.Intn(40),
			}
		}
		conns := rng.Intn(n+3) - 1
		slot := 40 + rng.Intn(10)

		got, want := newServer(q), newServer(q)
		gotN := got.servePair(0, conns, slot)
		wantN := want.servePairReference(0, conns, slot)
		if gotN != wantN {
			t.Fatalf("trial %d: served %d, reference %d (conns %d, queue %+v)", trial, gotN, wantN, conns, q)
		}
		if !reflect.DeepEqual(got.queues, want.queues) || got.class != want.class ||
			!reflect.DeepEqual(got.userServed, want.userServed) {
			t.Fatalf("trial %d (conns %d, queue %+v): state differs\n got %+v %+v %v\nwant %+v %+v %v",
				trial, conns, q, got.queues, got.class, got.userServed, want.queues, want.class, want.userServed)
		}
	}
}
