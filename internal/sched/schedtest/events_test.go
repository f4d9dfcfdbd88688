package schedtest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/engines"
	"see/internal/graph"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/topo"
)

// update regenerates the event-stream goldens instead of comparing:
//
//	go test ./internal/sched/schedtest -run TestEventStreamGolden -update
var update = flag.Bool("update", false, "rewrite the event-stream golden files")

// eventLog is a Tracer that writes every callback and its arguments, one
// line each, in call order. PhaseDone durations are wall-clock and are
// dropped, so the log is a deterministic function of the seed.
type eventLog struct{ b bytes.Buffer }

var _ sched.Tracer = (*eventLog)(nil)

func (l *eventLog) printf(format string, args ...any) {
	fmt.Fprintf(&l.b, format, args...)
	l.b.WriteByte('\n')
}

func (l *eventLog) SlotStart(alg sched.Algorithm) { l.printf("slot_start %v", alg) }
func (l *eventLog) PathPlanned(commodity, segments int) {
	l.printf("path_planned %d %d", commodity, segments)
}
func (l *eventLog) PathProvisioned(commodity int) { l.printf("path_provisioned %d", commodity) }
func (l *eventLog) AttemptReserved(u, v, count int) {
	l.printf("attempt_reserved %d %d %d", u, v, count)
}
func (l *eventLog) AttemptResolved(u, v int, created bool) {
	l.printf("attempt_resolved %d %d %v", u, v, created)
}
func (l *eventLog) SwapResolved(junction int, ok bool) { l.printf("swap %d %v", junction, ok) }
func (l *eventLog) ConnectionAssembled(commodity int, established bool) {
	l.printf("assembled %d %v", commodity, established)
}
func (l *eventLog) PhaseDone(ph sched.Phase, _ time.Duration) { l.printf("phase_done %v", ph) }
func (l *eventLog) Incident(kind sched.Incident, n int)       { l.printf("incident %v %d", kind, n) }
func (l *eventLog) SlotEnd(res *sched.SlotResult) {
	l.printf("slot_end lp=%v planned=%d provisioned=%d attempts=%d created=%d assembled=%d established=%d floor_rejected=%d per_pair=%v",
		res.LPObjective, res.PlannedPaths, res.ProvisionedPaths, res.Attempts, res.SegmentsCreated,
		res.Assembled, res.Established, res.FloorRejected, res.PerPair)
	for _, c := range res.Connections {
		l.printf("  conn pair=%d nodes=%v segments=%d fidelity=%v", c.Pair, c.Nodes, len(c.Segments), c.Fidelity)
	}
}

// eventPlan places one fault of every physical-phase kind next to the
// instance's SD pairs so each of them bites within three slots: a surprise
// node outage, a brownout and a flap on one of pair 2's source links (both
// announced, so the fault-aware planners report a forecast), and memory
// decoherence.
func eventPlan(t *testing.T, net *topo.Network, pairs []topo.SDPair) *chaos.FaultPlan {
	t.Helper()
	first := func(u int) graph.Edge { return net.G.Neighbors(u)[0] }
	p := &chaos.FaultPlan{
		Seed:        61,
		NodeOutages: []chaos.Window{{ID: first(pairs[3].D).To, From: 2, To: 3, Surprise: true}},
		Brownouts:   []chaos.Brownout{{Link: first(pairs[2].S).ID, Frac: 0.3, From: 0}},
		Flaps:       []chaos.Flap{{Link: first(pairs[2].S).ID, Period: 2, Duty: 0.5, From: 0}},
		Decoherence: 0.1,
	}
	if err := p.Validate(net.NumNodes(), net.NumLinks()); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEventStreamGolden pins the complete per-slot tracer event stream of
// every registered engine — which callbacks fire, in which order, with
// which arguments — on a 30-node, 4-pair instance for 3 slots with chaos,
// a carry-over bank, a 0.7 fidelity floor and greedy swap order all live.
func TestEventStreamGolden(t *testing.T) {
	net, pairs, err := Instance(30, 4, testSeed+20)
	if err != nil {
		t.Fatal(err)
	}
	plan := eventPlan(t, net, pairs)
	forEachEngine(t, func(t *testing.T, alg sched.Algorithm) {
		log := &eventLog{}
		eng, err := engines.New(alg, net, pairs, engines.Config{
			Workers:              1,
			Tracer:               log,
			Faults:               plan,
			FidelityFloors:       &qnet.FloorSpec{Default: 0.7},
			SwapOrder:            qnet.SwapOrderGreedy,
			CarryAwareLP:         true,
			CarryOver:            true,
			DecoherenceSlots:     2,
			CarryWernerRetention: 0.9,
			CarryMinWernerScale:  0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(eng, 67, 3); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "events", strings.ToLower(alg.String())+".txt")
		got := log.b.Bytes()
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("event stream differs from %s:\n%s", path, firstDiff(string(want), string(got)))
		}
	})
}

// firstDiff renders the first differing line of two event logs.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, wl, gl)
		}
	}
	return "(equal)"
}
