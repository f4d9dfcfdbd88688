package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"see/internal/chaos"
	"see/internal/ckpt"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/sched/schedtest"
	"see/internal/topo"
)

// serveFixture is everything needed to build identically configured
// servers repeatedly — the situation a process restart is in.
type serveFixture struct {
	net   *topo.Network
	pairs []topo.SDPair
	spec  string
	alg   sched.Algorithm
	seed  int64
}

func newServeFixture(t testing.TB, alg sched.Algorithm) *serveFixture {
	t.Helper()
	net, pairs, err := schedtest.Instance(12, 3, 91)
	if err != nil {
		t.Fatal(err)
	}
	return &serveFixture{
		net:   net,
		pairs: pairs,
		spec:  "bursty;rate=1;burst-rate=6;switch=0.3;users=20;max-active=30;deadline=3/6/12",
		alg:   alg,
		seed:  23,
	}
}

// build constructs a fresh server exactly as a restarted process would:
// new engine (with chaos + bank + tracer), new tracer, new arrival
// process.
func (f *serveFixture) build(t testing.TB) *Server {
	t.Helper()
	tracer := sched.NewCountingTracer()
	eng, err := engines.New(f.alg, f.net, f.pairs, engines.Config{
		Faults: &chaos.FaultPlan{
			Seed:        f.seed,
			NodeOutages: []chaos.Window{{ID: 2, From: 4, To: 8}},
			Decoherence: 0.1,
		},
		Tracer:           tracer,
		CarryOver:        true,
		DecoherenceSlots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseSpec(f.spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = f.seed
	cfg.Tracer = tracer
	srv, err := New(eng, len(f.pairs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServeCheckpointResume is the service-layer kill/resume invariant:
// run, checkpoint mid-way, rebuild everything from scratch, restore, and
// the remaining slots plus the final report are byte-identical.
func TestServeCheckpointResume(t *testing.T) {
	const slots, split = 24, 10
	f := newServeFixture(t, sched.Greedy)

	ref := f.build(t)
	var want []SlotStats
	if err := ref.Run(slots, func(st *SlotStats) error {
		want = append(want, *st)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	wantReport := ref.Report()
	wantTracer := ref.cfg.Tracer.Counts()

	// The interrupted run: stop at split, checkpoint to disk, drop
	// everything.
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	first := f.build(t)
	if err := first.Run(split, nil); err != nil {
		t.Fatal(err)
	}
	if err := first.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".json"); err != nil {
		t.Errorf("debug dump missing: %v", err)
	}

	resumed := f.build(t)
	if err := resumed.ResumeFrom(path); err != nil {
		t.Fatal(err)
	}
	if resumed.Slot() != split {
		t.Fatalf("resumed at slot %d, want %d", resumed.Slot(), split)
	}
	var got []SlotStats
	if err := resumed.Run(slots-split, func(st *SlotStats) error {
		got = append(got, *st)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[split:]) {
		t.Errorf("resumed slots diverged:\n got %+v\nwant %+v", got, want[split:])
	}
	if gotRep := resumed.Report(); !reflect.DeepEqual(gotRep, wantReport) {
		t.Errorf("resumed report diverged:\n got %+v\nwant %+v", gotRep, wantReport)
	}
	if gotTr := resumed.cfg.Tracer.Counts(); gotTr != wantTracer {
		t.Errorf("resumed tracer counts diverged:\n got %+v\nwant %+v", gotTr, wantTracer)
	}
}

// TestServeCheckpointResumeSEE runs the same invariant through the full
// SEE pipeline (LP planning, banked carry-over, chaos).
func TestServeCheckpointResumeSEE(t *testing.T) {
	if testing.Short() {
		t.Skip("LP engine in -short mode")
	}
	const slots, split = 10, 4
	f := newServeFixture(t, sched.SEE)

	ref := f.build(t)
	var want []SlotStats
	if err := ref.Run(slots, func(st *SlotStats) error {
		want = append(want, *st)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "serve.ckpt")
	first := f.build(t)
	if err := first.Run(split, nil); err != nil {
		t.Fatal(err)
	}
	if err := first.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	resumed := f.build(t)
	if err := resumed.ResumeFrom(path); err != nil {
		t.Fatal(err)
	}
	var got []SlotStats
	if err := resumed.Run(slots-split, func(st *SlotStats) error {
		got = append(got, *st)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[split:]) {
		t.Errorf("resumed SEE slots diverged:\n got %+v\nwant %+v", got, want[split:])
	}
}

// TestRestoreBadPhaseLeavesEngineUntouched crafts a checkpoint whose
// arrival phase the process rejects. Restore must fail before it touches
// the engine, so the engine's state still reads as before.
func TestRestoreBadPhaseLeavesEngineUntouched(t *testing.T) {
	f := newServeFixture(t, sched.Greedy)
	src := f.build(t)
	if err := src.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	crafted := &ckpt.Snapshot{}
	for _, name := range snap.Names() {
		data, _ := snap.Section(name)
		if name == secServe {
			d := ckpt.NewDecoder(data)
			nextID := d.Int()
			d.Int() // the phase being replaced
			e := &ckpt.Encoder{}
			e.Int(nextID)
			e.Int(7)
			data = append(e.Bytes(), data[len(data)-d.Remaining():]...)
		}
		crafted.Add(name, data)
	}

	dst := f.build(t)
	if err := dst.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	ck := dst.eng.(sched.Checkpointable)
	before, err := ck.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(crafted); err == nil {
		t.Fatal("checkpoint with arrival phase 7 restored")
	}
	after, err := ck.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("rejected restore changed the engine state:\nbefore %+v\n after %+v", before, after)
	}
	if dst.Slot() != 2 {
		t.Errorf("rejected restore moved the server to slot %d", dst.Slot())
	}
}

// TestRestoreFingerprintMismatch checks a checkpoint refuses to restore
// into a differently configured server.
func TestRestoreFingerprintMismatch(t *testing.T) {
	f := newServeFixture(t, sched.Greedy)
	srv := f.build(t)
	if err := srv.Run(3, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := newServeFixture(t, sched.Greedy)
	other.seed = 99
	if err := other.build(t).Restore(snap); err == nil {
		t.Fatal("checkpoint restored across a seed change")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestResumeRejectsCorruptFile checks on-disk corruption surfaces as a
// ckpt corruption error, not a wrong resume.
func TestResumeRejectsCorruptFile(t *testing.T) {
	f := newServeFixture(t, sched.Greedy)
	srv := f.build(t)
	if err := srv.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	if err := srv.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = f.build(t).ResumeFrom(path)
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if !ckpt.IsCorrupt(err) {
		t.Fatalf("error %v is not IsCorrupt", err)
	}
}

// TestSnapshotRequiresCheckpointableEngine checks the capability gate.
func TestSnapshotRequiresCheckpointableEngine(t *testing.T) {
	cfg, err := ParseSpec("poisson")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(&fixedEngine{perPair: []int{0}}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Snapshot(); err == nil {
		t.Fatal("snapshot of a non-checkpointable engine succeeded")
	}
	if err := srv.Restore(&ckpt.Snapshot{}); err == nil {
		t.Fatal("restore into a non-checkpointable engine succeeded")
	}
}

// TestRestoreTracerPresenceMismatch checks tracer wiring must match across
// the restart.
func TestRestoreTracerPresenceMismatch(t *testing.T) {
	f := newServeFixture(t, sched.Greedy)
	srv := f.build(t)
	if err := srv.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bare := f.build(t)
	bare.cfg.Tracer = nil
	if err := bare.Restore(snap); err == nil {
		t.Fatal("tracer-carrying checkpoint restored into a tracer-less server")
	}
}
