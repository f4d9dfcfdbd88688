package serve

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"see/internal/ckpt"
	"see/internal/sched"
)

// FuzzParseArrivals checks the arrival-spec parser on arbitrary input: it
// must never panic, and any spec it accepts must have a finite class mix
// summing to 1, deadlines of at least one slot, a population within
// maxUsers, and finite process parameters within the ranges ParseSpec
// documents, every process's peak rate included. Every accepted spec must
// also build a server that runs a slot.
func FuzzParseArrivals(f *testing.F) {
	for _, seed := range []string{
		"poisson",
		"poisson;rate=3;users=200;mix=1/1/2;deadline=2/4/8;max-active=64",
		"diurnal;rate=2;amp=0.8;period=50",
		"diurnal;rate=250;amp=1;period=4",
		"diurnal;rate=500;amp=1;period=4",
		"bursty;rate=1;burst-rate=8;switch=0.2",
		"diurnal;amp=NaN",
		"bursty;switch=NaN",
		"poisson;mix=inf/0/0",
		"poisson;mix=1e308/1e308/1e308",
		"poisson;mix=5e-324/0/0",
		"poisson;deadline=1e300/1/1",
		"poisson;deadline=inf/1/1",
		"poisson;rate=+Inf",
		"bursty;burst-rate=NaN",
		";;",
		"poisson;rate",
		"poisson;users=4611686018427387904",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		sum := 0.0
		for c, v := range cfg.Mix {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%q: mix[%d] = %v", spec, c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%q: mix %v sums to %v", spec, cfg.Mix, sum)
		}
		for c, d := range cfg.Deadline {
			if d < 1 || d > maxDeadline {
				t.Fatalf("%q: deadline[%d] = %d", spec, c, d)
			}
		}
		if cfg.Users < 1 || cfg.Users > maxUsers || cfg.MaxActive < 0 {
			t.Fatalf("%q: users=%d max-active=%d", spec, cfg.Users, cfg.MaxActive)
		}
		rate := func(name string, r float64) {
			if !(r > 0 && r <= maxRate) {
				t.Fatalf("%q: %s = %v outside (0,%v]", spec, name, r, maxRate)
			}
		}
		switch p := cfg.Process.(type) {
		case *Poisson:
			rate("rate", p.Rate)
		case *Diurnal:
			rate("rate", p.Base)
			rate("peak rate", p.Base*(1+p.Amp))
			if !(p.Amp >= 0 && p.Amp <= 1) || p.Period < 2 {
				t.Fatalf("%q: diurnal %+v", spec, p)
			}
		case *Bursty:
			rate("rate", p.Calm)
			rate("burst-rate", p.Burst)
			if p.Burst < p.Calm || !(p.Switch > 0 && p.Switch <= 1) {
				t.Fatalf("%q: bursty %+v", spec, p)
			}
		default:
			t.Fatalf("%q: accepted with process %v", spec, cfg.Process)
		}
		srv, err := New(&fixedEngine{perPair: []int{1, 2}}, 2, cfg)
		if err != nil {
			t.Fatalf("%q: accepted by ParseSpec, rejected by New: %v", spec, err)
		}
		if _, err := srv.RunSlot(); err != nil {
			t.Fatalf("%q: first slot: %v", spec, err)
		}
	})
}

// FuzzRestore feeds arbitrary checkpoint containers through ckpt.Decode
// into Server.Restore. Neither may panic, and Restore validates before it
// commits: when it returns an error, a Snapshot taken after the call holds
// the same sections with the same bytes as one taken before it. A
// checkpoint it accepts must leave a server that runs its next slot. The
// seed is the container of a real checkpoint from a small Greedy server.
// A mutated container would almost never match its CRC trailer, so the
// body rewrites the trailer first: the mutations then reach the section
// parsers behind it (FuzzDecode in internal/ckpt covers the CRC check).
func FuzzRestore(f *testing.F) {
	fx := newServeFixture(f, sched.Greedy)
	src := fx.build(f)
	if err := src.Run(5, nil); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "serve.ckpt")
	if err := src.WriteCheckpoint(path); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	f.Fuzz(func(t *testing.T, raw []byte) {
		if n := len(raw) - 4; n >= len(ckpt.Magic) {
			raw = binary.LittleEndian.AppendUint32(raw[:n:n], crc32.ChecksumIEEE(raw[:n]))
		}
		snap, err := ckpt.Decode(raw)
		if err != nil {
			return
		}
		dst := fx.build(t)
		if err := dst.Run(2, nil); err != nil {
			t.Fatal(err)
		}
		before := snapshotSections(t, dst)
		if err := dst.Restore(snap); err != nil {
			if after := snapshotSections(t, dst); !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected restore (%v) changed the server:\nbefore %q\n after %q", err, before, after)
			}
			return
		}
		if err := dst.Run(1, nil); err != nil {
			t.Fatalf("slot after an accepted restore: %v", err)
		}
	})
}

// snapshotSections returns a server's checkpoint as name/bytes pairs in
// section order.
func snapshotSections(t *testing.T, s *Server) [][2]string {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]string
	for _, name := range snap.Names() {
		data, _ := snap.Section(name)
		out = append(out, [2]string{name, string(data)})
	}
	return out
}
