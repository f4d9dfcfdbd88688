package serve

import (
	"math/rand"
	"reflect"
	"testing"

	"see/internal/engines"
	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/sched/schedtest"
)

// fixedEngine returns a constant PerPair vector every slot — a service
// capacity dial for queueing-logic tests.
type fixedEngine struct{ perPair []int }

func (f *fixedEngine) Algorithm() sched.Algorithm { return sched.Greedy }

func (f *fixedEngine) RunSlot(*rand.Rand) (*sched.SlotResult, error) {
	est := 0
	for _, n := range f.perPair {
		est += n
	}
	return &sched.SlotResult{Established: est, PerPair: append([]int(nil), f.perPair...)}, nil
}

func (f *fixedEngine) UpperBound() float64 { return 0 }

// newGreedyServer builds a server over a real Greedy engine on a small
// random instance.
func newGreedyServer(t *testing.T, spec string, seed int64) *Server {
	t.Helper()
	net, pairs, err := schedtest.Instance(12, 3, 91)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engines.New(sched.Greedy, net, pairs, engines.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	srv, err := New(eng, len(pairs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerAccounting runs a real engine and checks the lifecycle
// conservation laws the report is built on.
func TestServerAccounting(t *testing.T) {
	srv := newGreedyServer(t, "poisson;rate=2;users=30;max-active=40", 5)
	var slots []SlotStats
	if err := srv.Run(40, func(st *SlotStats) error {
		slots = append(slots, *st)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep := srv.Report()
	if rep.Slots != 40 || srv.Slot() != 40 {
		t.Fatalf("slots = %d/%d", rep.Slots, srv.Slot())
	}
	if rep.Arrived != rep.Admitted+rep.Rejected {
		t.Errorf("arrived %d != admitted %d + rejected %d", rep.Arrived, rep.Admitted, rep.Rejected)
	}
	if rep.Admitted != rep.Served+rep.Expired+rep.Backlog {
		t.Errorf("admitted %d != served %d + expired %d + backlog %d",
			rep.Admitted, rep.Served, rep.Expired, rep.Backlog)
	}
	if rep.Served > rep.Established {
		t.Errorf("served %d exceeds established %d", rep.Served, rep.Established)
	}
	if rep.Fairness <= 0 || rep.Fairness > 1 {
		t.Errorf("fairness = %v", rep.Fairness)
	}
	if want := float64(rep.Served) / 40; rep.Throughput != want {
		t.Errorf("throughput = %v, want %v", rep.Throughput, want)
	}
	var sum SlotStats
	for _, st := range slots {
		sum.Arrived += st.Arrived
		sum.Admitted += st.Admitted
		sum.Rejected += st.Rejected
		sum.Expired += st.Expired
		sum.Served += st.Served
		sum.Established += st.Established
	}
	if sum.Arrived != rep.Arrived || sum.Served != rep.Served ||
		sum.Expired != rep.Expired || sum.Established != rep.Established {
		t.Errorf("per-slot totals %+v disagree with report %+v", sum, rep)
	}
	if slots[len(slots)-1].Backlog != rep.Backlog {
		t.Errorf("final backlog %d != report backlog %d", slots[len(slots)-1].Backlog, rep.Backlog)
	}
	perClass := 0
	for c := range rep.PerClass {
		perClass += rep.PerClass[c].Arrived
		if r := rep.PerClass[c].ServiceRate; r < 0 || r > 1 {
			t.Errorf("%v service rate %v", Class(c), r)
		}
	}
	if perClass != rep.Arrived {
		t.Errorf("class arrivals %d != total %d", perClass, rep.Arrived)
	}
}

// TestServerDeterminism pins run-to-run reproducibility: same config, same
// seed, same per-slot statistics.
func TestServerDeterminism(t *testing.T) {
	const spec = "diurnal;rate=2;amp=0.6;period=16;users=25"
	run := func() ([]SlotStats, *Report) {
		srv := newGreedyServer(t, spec, 17)
		var out []SlotStats
		if err := srv.Run(30, func(st *SlotStats) error {
			out = append(out, *st)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out, srv.Report()
	}
	aSlots, aRep := run()
	bSlots, bRep := run()
	if !reflect.DeepEqual(aSlots, bSlots) {
		t.Error("identical configs produced different slot statistics")
	}
	if !reflect.DeepEqual(aRep, bRep) {
		t.Error("identical configs produced different reports")
	}
}

// TestServerLightLoadLatency checks the light-load end of the queueing
// curve: at a trickle arrival rate against SEE on a 50-node instance most
// requests are served, and served ones wait only a few slots.
func TestServerLightLoadLatency(t *testing.T) {
	net, pairs, err := schedtest.Instance(50, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engines.New(sched.SEE, net, pairs, engines.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseSpec("poisson;rate=1;users=5;mix=0/0/1;deadline=50/50/50")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 17
	srv, err := New(eng, len(pairs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(50, nil); err != nil {
		t.Fatal(err)
	}
	rep := srv.Report()
	if rep.Arrived == 0 {
		t.Fatal("no arrivals at rate 1 over 50 slots")
	}
	if frac := float64(rep.Served) / float64(rep.Arrived); frac < 0.5 {
		t.Errorf("light load served only %.0f%% of %d arrivals", frac*100, rep.Arrived)
	}
	if lat := rep.PerClass[Bronze].MeanLatency; lat > 5 {
		t.Errorf("light load mean latency %.2f slots", lat)
	}
}

// TestClassPriority seeds a queue with mixed classes and checks service
// order: gold first, FIFO within a class.
func TestClassPriority(t *testing.T) {
	cfg, err := ParseSpec("poisson;rate=0.0001;users=4;deadline=100/100/100")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(&fixedEngine{perPair: []int{2}}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bronze arrived first, then silver, then two golds.
	srv.queues[0] = []Request{
		{ID: 0, User: 0, Class: Bronze, Arrived: 0, Deadline: 100},
		{ID: 1, User: 1, Class: Silver, Arrived: 0, Deadline: 100},
		{ID: 2, User: 2, Class: Gold, Arrived: 0, Deadline: 100},
		{ID: 3, User: 3, Class: Gold, Arrived: 0, Deadline: 100},
	}
	srv.class[Bronze].Admitted = 1
	srv.class[Silver].Admitted = 1
	srv.class[Gold].Admitted = 2

	st, err := srv.RunSlot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served < 2 {
		t.Fatalf("served %d of capacity 2", st.Served)
	}
	if srv.class[Gold].Served != 2 {
		t.Errorf("gold served %d, want 2 (priority)", srv.class[Gold].Served)
	}
	if srv.class[Bronze].Served != 0 {
		t.Errorf("bronze served %d before gold drained", srv.class[Bronze].Served)
	}
	// The survivors keep FIFO order: bronze 0, silver 1.
	var ids []int
	for _, r := range srv.queues[0] {
		ids = append(ids, r.ID)
	}
	if len(ids) < 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("queue after service = %v", ids)
	}
}

// TestAdmissionBound checks MaxActive rejects overflow arrivals and the
// backlog never exceeds the bound.
func TestAdmissionBound(t *testing.T) {
	cfg, err := ParseSpec("poisson;rate=10;users=8;max-active=5;deadline=100/100/100")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 3
	srv, err := New(&fixedEngine{perPair: []int{0}}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		st, err := srv.RunSlot()
		if err != nil {
			t.Fatal(err)
		}
		if st.Backlog > 5 {
			t.Fatalf("slot %d backlog %d exceeds max-active 5", k, st.Backlog)
		}
	}
	rep := srv.Report()
	if rep.Rejected == 0 {
		t.Error("rate 10 against max-active 5 rejected nothing")
	}
	if rep.Backlog != 5 {
		t.Errorf("final backlog %d, want 5", rep.Backlog)
	}
}

// TestDeadlineExpiry checks unserved requests die exactly at their
// class TTL.
func TestDeadlineExpiry(t *testing.T) {
	cfg, err := ParseSpec("poisson;rate=2;users=6;deadline=1/1/1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 9
	srv, err := New(&fixedEngine{perPair: []int{0}}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if _, err := srv.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	rep := srv.Report()
	if rep.Served != 0 {
		t.Errorf("zero-capacity engine served %d", rep.Served)
	}
	// TTL 1: everything admitted before the last slot has expired; only the
	// final slot's admissions survive as backlog.
	if rep.Expired+rep.Backlog != rep.Admitted {
		t.Errorf("expired %d + backlog %d != admitted %d", rep.Expired, rep.Backlog, rep.Admitted)
	}
	if rep.Expired == 0 {
		t.Error("TTL 1 with no service expired nothing")
	}
}

// TestNewValidation covers constructor rejection paths.
func TestNewValidation(t *testing.T) {
	good, err := ParseSpec("poisson")
	if err != nil {
		t.Fatal(err)
	}
	eng := &fixedEngine{perPair: []int{0}}
	cases := []struct {
		name  string
		eng   sched.Engine
		pairs int
		mut   func(*Config)
	}{
		{"nil engine", nil, 1, nil},
		{"no pairs", eng, 0, nil},
		{"nil process", eng, 1, func(c *Config) { c.Process = nil }},
		{"no users", eng, 1, func(c *Config) { c.Users = 0 }},
		{"huge users", eng, 1, func(c *Config) { c.Users = 1 << 62 }},
		{"negative max-active", eng, 1, func(c *Config) { c.MaxActive = -1 }},
		{"zero mix", eng, 1, func(c *Config) { c.Mix = [NumClasses]float64{} }},
		{"negative mix", eng, 1, func(c *Config) { c.Mix[Gold] = -1 }},
		{"zero deadline", eng, 1, func(c *Config) { c.Deadline[Silver] = 0 }},
	}
	for _, tc := range cases {
		cfg := good
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		if _, err := New(tc.eng, tc.pairs, cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(eng, 1, good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestEnginePairMismatch checks the server rejects an engine whose PerPair
// width disagrees with its own pair count.
func TestEnginePairMismatch(t *testing.T) {
	cfg, err := ParseSpec("poisson")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(&fixedEngine{perPair: []int{0, 0}}, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RunSlot(); err == nil {
		t.Fatal("pair-width mismatch accepted")
	}
}

// TestServeSlotAllocs guards the allocation-free served slot: once the
// queues and the engine's slot storage have grown to the instance, a
// serve.Server slot (expiry, bursty arrivals and admission, the engine
// slot, class-priority service) over Contend or Greedy allocates nothing,
// with and without a fidelity floor.
func TestServeSlotAllocs(t *testing.T) {
	net, pairs, err := schedtest.Instance(40, 6, 91)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []sched.Algorithm{sched.Contend, sched.Greedy} {
		for _, floored := range []bool{false, true} {
			name := alg.String()
			var ecfg engines.Config
			if floored {
				name += "-floored"
				ecfg.FidelityFloors = &qnet.FloorSpec{Default: 0.8}
			}
			t.Run(name, func(t *testing.T) {
				eng, err := engines.New(alg, net, pairs, ecfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := ParseSpec("bursty;rate=2;burst-rate=8;switch=0.1;users=120;mix=2/3/5;deadline=4/8/16;max-active=60")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Seed = 1
				srv, err := New(eng, len(pairs), cfg)
				if err != nil {
					t.Fatal(err)
				}
				slot := func() {
					if _, err := srv.RunSlot(); err != nil {
						t.Fatal(err)
					}
				}
				// Grow the queues and every reused buffer first.
				for range 300 {
					slot()
				}
				if got := testing.AllocsPerRun(300, slot); got != 0 {
					t.Errorf("%s served slot allocates %v times, want 0", name, got)
				}
				rep := srv.Report()
				if rep.Served == 0 || rep.Expired == 0 || floored && rep.FloorRejected == 0 {
					t.Errorf("%s: served %d, expired %d, floor-rejected %d: the slots exercised too little",
						name, rep.Served, rep.Expired, rep.FloorRejected)
				}
			})
		}
	}
}
