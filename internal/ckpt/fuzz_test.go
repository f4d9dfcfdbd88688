package ckpt

import (
	"reflect"
	"testing"
)

// FuzzDecode checks the checkpoint readers on arbitrary bytes: Decode and
// then DecodeEngineState on every section it yields must return an error
// or a value, never panic. Random bytes rarely pass the container
// checksum, so the input is also decoded directly as an engine-state
// payload. A payload that decodes must re-encode to bytes that decode to
// the same tree.
func FuzzDecode(f *testing.F) {
	payload := EncodeEngineState(fullEngineState())
	s := &Snapshot{}
	s.Add("engine", payload)
	raw, err := s.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(payload)
	f.Add(EncodeEngineState(nil))
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		decodeEngine(t, raw)
		snap, err := Decode(raw)
		if err != nil {
			return
		}
		for _, name := range snap.Names() {
			data, _ := snap.Section(name)
			decodeEngine(t, data)
		}
	})
}

// decodeEngine decodes one engine-state payload and, when it decodes,
// checks that the tree survives an encode/decode round trip.
func decodeEngine(t *testing.T, data []byte) {
	st, err := DecodeEngineState(data)
	if err != nil {
		return
	}
	again, err := DecodeEngineState(EncodeEngineState(st))
	if err != nil {
		t.Fatalf("re-decode of an accepted payload: %v", err)
	}
	if !reflect.DeepEqual(again, st) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, st)
	}
}
