package ckpt

import (
	"reflect"
	"testing"

	"see/internal/sched"
)

// FuzzDecode checks Decode on arbitrary bytes into an engine-state tree:
// it must return an error or a value, never panic, and a value it accepts
// must re-encode to a checkpoint that decodes to the same tree. Random
// bytes rarely pass the header checksum; the seeds are real checkpoints,
// so mutations of their headers and bodies both reach the checks.
func FuzzDecode(f *testing.F) {
	for _, st := range []*sched.EngineState{fullEngineState(), nil, {Algorithm: sched.Greedy}} {
		raw, err := Encode(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var st sched.EngineState
		if err := Decode(raw, &st); err != nil {
			return
		}
		again, err := Encode(&st)
		if err != nil {
			t.Fatalf("re-encode of an accepted checkpoint: %v", err)
		}
		var back sched.EngineState
		if err := Decode(again, &back); err != nil {
			t.Fatalf("re-decode of an accepted checkpoint: %v", err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, st)
		}
	})
}
