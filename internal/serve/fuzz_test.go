package serve

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
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

// FuzzRestore feeds arbitrary checkpoint files through ckpt.Decode into
// Server.restore. Neither may panic, and restore validates before it
// commits: when it returns an error, the server's checkpoint after the
// call is byte-identical to the one before it. A checkpoint it accepts
// must leave a server that runs its next slot. The seeds are the file of a
// real checkpoint from a small Greedy server, and the same checkpoint with
// its rng position at 10¹³ (hours of replay, were it not rejected).
// Restore runs with the tests' horizon, so no accepted cursor replays
// more than about 0.1 s. A mutated file would almost
// never match the CRC in its header, so the body rewrites that CRC first:
// the mutations then reach the JSON decoder and restore's checks behind it
// (FuzzDecode in internal/ckpt covers the CRC check).
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
	c := decodedCheckpoint(f, src)
	c.RNG.Pos = 1e13
	forged, err := ckpt.Encode(c)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forged)

	f.Fuzz(func(t *testing.T, raw []byte) {
		if header, body, ok := bytes.Cut(raw, []byte{'\n'}); ok {
			if i := bytes.LastIndexByte(header, ' '); i >= 0 {
				raw = fmt.Appendf(header[:i+1:i+1], "%08x\n%s", crc32.ChecksumIEEE(body), body)
			}
		}
		var c checkpoint
		if err := ckpt.Decode(raw, &c); err != nil {
			return
		}
		dst := fx.build(t)
		if err := dst.Run(2, nil); err != nil {
			t.Fatal(err)
		}
		before := encodedCheckpoint(t, dst)
		if err := dst.restore(&c, testHorizon); err != nil {
			if after := encodedCheckpoint(t, dst); !bytes.Equal(before, after) {
				t.Fatalf("rejected restore (%v) changed the server:\nbefore %s\n after %s", err, before, after)
			}
			return
		}
		if err := dst.Run(1, nil); err != nil {
			t.Fatalf("slot after an accepted restore: %v", err)
		}
	})
}
