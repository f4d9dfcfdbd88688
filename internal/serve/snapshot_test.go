package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"see/internal/chaos"
	"see/internal/ckpt"
	"see/internal/engines"
	"see/internal/sched"
	"see/internal/sched/schedtest"
	"see/internal/topo"
)

// testHorizon is the run length the restore tests resume into: longer
// than any run they checkpoint, and short enough that a cursor at the
// per-slot ceiling replays in about 0.1 s.
const testHorizon = 50

// serveFixture is everything needed to build identically configured
// servers repeatedly — the situation a process restart is in.
type serveFixture struct {
	net   *topo.Network
	pairs []topo.SDPair
	spec  string
	alg   sched.Algorithm
	seed  int64
	// wrap, when non-nil, hands the server a wrapper of the engine
	// instead of the engine itself.
	wrap func(sched.Engine) sched.Engine
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
	var served sched.Engine = eng
	if f.wrap != nil {
		served = f.wrap(eng)
	}
	srv, err := New(served, len(f.pairs), cfg)
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
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := bytes.Cut(raw, []byte{'\n'})
	var dump struct {
		Slot int `json:"slot"`
	}
	if err := json.Unmarshal(body, &dump); err != nil || dump.Slot != first.Slot() {
		t.Errorf("checkpoint body is not JSON at slot %d: %v, %+v", first.Slot(), err, dump)
	}

	resumed := f.build(t)
	if err := resumed.ResumeFrom(path, slots); err != nil {
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
	if err := resumed.ResumeFrom(path, slots); err != nil {
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
	crafted := decodedCheckpoint(t, src)
	crafted.Phase = 7

	dst := f.build(t)
	if err := dst.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	ck := dst.eng.(sched.Stateful)
	before, err := ck.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.restore(crafted, testHorizon); err == nil {
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
	snap := decodedCheckpoint(t, srv)
	other := newServeFixture(t, sched.Greedy)
	other.seed = 99
	if err := other.build(t).restore(snap, testHorizon); err == nil {
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
	err = f.build(t).ResumeFrom(path, testHorizon)
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if !ckpt.IsCorrupt(err) {
		t.Fatalf("error %v is not IsCorrupt", err)
	}
}

// slotOnly is a delegating engine that exposes only sched.Engine, the
// shape of a timing wrapper handed to New: its methods hide the wrapped
// engine's sched.Stateful capability.
type slotOnly struct{ sched.Engine }

// TestSnapshotRequiresCheckpointableEngine checks the capability gate, on
// a bare engine and on a wrapper over a stateful one: checkpointing
// fails with an error, never a panic, and a refused resume leaves the
// server running exactly like a twin that never tried.
func TestSnapshotRequiresCheckpointableEngine(t *testing.T) {
	cfg, err := ParseSpec("poisson")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(&fixedEngine{perPair: []int{0}}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.snapshot(); err == nil {
		t.Fatal("snapshot of a non-checkpointable engine succeeded")
	}
	if err := srv.restore(&checkpoint{}, testHorizon); err == nil {
		t.Fatal("restore into a non-checkpointable engine succeeded")
	}

	f := newServeFixture(t, sched.Greedy)
	src := f.build(t)
	if err := src.Run(3, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := src.WriteCheckpoint(good); err != nil {
		t.Fatal(err)
	}
	f.wrap = func(e sched.Engine) sched.Engine { return slotOnly{e} }
	wrapped, twin := f.build(t), f.build(t)
	const refused = "does not support checkpointing"
	if err := wrapped.ResumeFrom(good, testHorizon); err == nil || !strings.Contains(err.Error(), refused) {
		t.Fatalf("ResumeFrom through a wrapper = %v, want %q", err, refused)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	if err := wrapped.WriteCheckpoint(bad); err == nil || !strings.Contains(err.Error(), refused) {
		t.Fatalf("WriteCheckpoint through a wrapper = %v, want %q", err, refused)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("refused checkpoint left a file: %v", err)
	}
	for slot := 0; slot < 3; slot++ {
		got, err := wrapped.RunSlot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.RunSlot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d after a refused resume:\n got %+v\nwant %+v", slot, got, want)
		}
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
	snap := decodedCheckpoint(t, srv)
	bare := f.build(t)
	bare.cfg.Tracer = nil
	if err := bare.restore(snap, testHorizon); err == nil {
		t.Fatal("tracer-carrying checkpoint restored into a tracer-less server")
	}
}

// TestRestoreRejectsImpossibleState crafts checkpoints that pass the
// fingerprint but describe a state no server can be in. Each must be
// rejected, and the rejected restore must leave the server's checkpoint
// byte-identical.
func TestRestoreRejectsImpossibleState(t *testing.T) {
	f := newServeFixture(t, sched.Greedy)
	src := f.build(t)
	if err := src.Run(6, nil); err != nil {
		t.Fatal(err)
	}
	// queued returns the first pair with a queued request.
	queued := func(c *checkpoint) int {
		for i, q := range c.Queues {
			if len(q) > 0 {
				return i
			}
		}
		t.Fatal("fixture checkpoint has no queued request")
		return -1
	}
	cases := []struct {
		name  string
		craft func(c *checkpoint)
	}{
		{"negative slot", func(c *checkpoint) { c.Slot = -3 }},
		{"negative next ID", func(c *checkpoint) { c.NextID = -1 }},
		{"slot beyond the horizon", func(c *checkpoint) { c.Slot = testHorizon + 1 }},
		{"foreign rng seed", func(c *checkpoint) { c.RNG.Seed++ }},
		{"no engine state", func(c *checkpoint) { c.Engine = nil }},
		{"request in the wrong queue", func(c *checkpoint) {
			i := queued(c)
			c.Queues[i][0].Pair = (i + 1) % len(c.Queues)
		}},
		{"request ID not yet issued", func(c *checkpoint) { c.Queues[queued(c)][0].ID = c.NextID }},
		{"request arrived in the future", func(c *checkpoint) { c.Queues[queued(c)][0].Arrived = c.Slot }},
		{"request class out of range", func(c *checkpoint) { c.Queues[queued(c)][0].Class = NumClasses }},
		{"request user out of range", func(c *checkpoint) { c.Queues[queued(c)][0].User = -1 }},
		{"missing queue", func(c *checkpoint) { c.Queues = c.Queues[1:] }},
		{"missing class", func(c *checkpoint) { c.Classes = c.Classes[:NumClasses-1] }},
		{"short user array", func(c *checkpoint) { c.UserServed = c.UserServed[1:] }},
		{"tracer counts dropped", func(c *checkpoint) { c.Tracer = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crafted := decodedCheckpoint(t, src)
			tc.craft(crafted)
			dst := f.build(t)
			if err := dst.Run(2, nil); err != nil {
				t.Fatal(err)
			}
			before := encodedCheckpoint(t, dst)
			if err := dst.restore(crafted, testHorizon); err == nil {
				t.Fatal("impossible checkpoint restored")
			}
			if after := encodedCheckpoint(t, dst); !bytes.Equal(before, after) {
				t.Errorf("rejected restore changed the server:\nbefore %s\n after %s", before, after)
			}
		})
	}
	// The untouched checkpoint restores: the crafts above are what fail.
	if err := f.build(t).restore(decodedCheckpoint(t, src), testHorizon); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
}

// encodedCheckpoint returns the server's checkpoint as a file holds it.
func encodedCheckpoint(t testing.TB, s *Server) []byte {
	t.Helper()
	c, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ckpt.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decodedCheckpoint returns the server's checkpoint as ResumeFrom reads it
// back: decoded from its file bytes, so it shares no slice with the
// server.
func decodedCheckpoint(t testing.TB, s *Server) *checkpoint {
	t.Helper()
	var c checkpoint
	if err := ckpt.Decode(encodedCheckpoint(t, s), &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestResumeBoundsCursorReplay checks that a checkpoint claiming 10¹³ rng
// draws, hours of replay, fails within 1 s and leaves the server as it
// was: at slot 5 the per-slot ceiling rejects it with a *CursorError, and
// at a slot count that would admit the cursor the run's horizon rejects
// the slot.
func TestResumeBoundsCursorReplay(t *testing.T) {
	f := newServeFixture(t, sched.Greedy)
	src := f.build(t)
	if err := src.Run(5, nil); err != nil {
		t.Fatal(err)
	}
	c := decodedCheckpoint(t, src)
	c.RNG.Pos = 1e13
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	resume := func(c *checkpoint) error {
		t.Helper()
		if err := ckpt.Write(path, c); err != nil {
			t.Fatal(err)
		}
		dst := f.build(t)
		before := encodedCheckpoint(t, dst)
		start := time.Now()
		err := dst.ResumeFrom(path, testHorizon)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("resume at pos %d, slot %d took %v", c.RNG.Pos, c.Slot, d)
		}
		if err == nil {
			t.Fatalf("resume at pos %d, slot %d accepted", c.RNG.Pos, c.Slot)
		}
		if after := encodedCheckpoint(t, dst); !bytes.Equal(before, after) {
			t.Fatalf("rejected resume (%v) changed the server", err)
		}
		return err
	}
	var ce *CursorError
	if err := resume(c); !errors.As(err, &ce) || ce.Pos != 1e13 || ce.Slot != 5 {
		t.Fatalf("resume at pos 1e13, slot 5 = %v, want a *CursorError", err)
	}
	c.Slot = int(c.RNG.Pos / maxDrawsPerSlot)
	if err := resume(c); err == nil || !strings.Contains(err.Error(), "beyond the run's") {
		t.Fatalf("resume at pos 1e13, slot %d = %v, want the horizon error", c.Slot, err)
	}
}
