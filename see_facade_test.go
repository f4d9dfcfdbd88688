package see

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"see/internal/qnet"
	"see/internal/sched"
	"see/internal/warm"
)

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("device full") }

// jsonlOutput emits one event through a tracer built by newTracer over w
// and returns what reached w along with the flush error.
func jsonlOutput(newTracer func(io.Writer) *JSONLTracer, w io.Writer) (any, error) {
	tr := newTracer(w)
	tr.SlotStart(SEE)
	err := tr.Flush()
	if b, ok := w.(*bytes.Buffer); ok {
		return b.String(), err
	}
	return nil, err
}

// TestFacadeWrappers checks that each one-line facade wrapper returns what
// the internal function it forwards to returns, for a valid and an invalid
// input (NewWarmCache takes none).
func TestFacadeWrappers(t *testing.T) {
	counting := NewCountingTracer()
	nop := sched.NopTracer{}
	for _, tc := range []struct {
		name    string
		wantErr bool
		got     func() (any, error)
		want    func() (any, error)
	}{
		{"ParseFloorSpec/valid", false,
			func() (any, error) { return ParseFloorSpec("0.8;3=0.95") },
			func() (any, error) { return qnet.ParseFloorSpec("0.8;3=0.95") }},
		{"ParseFloorSpec/invalid", true,
			func() (any, error) { return ParseFloorSpec("1.5") },
			func() (any, error) { return qnet.ParseFloorSpec("1.5") }},
		{"ParseSwapOrder/valid", false,
			func() (any, error) { return ParseSwapOrder("greedy") },
			func() (any, error) { return qnet.ParseSwapOrder("greedy") }},
		{"ParseSwapOrder/invalid", true,
			func() (any, error) { return ParseSwapOrder("random") },
			func() (any, error) { return qnet.ParseSwapOrder("random") }},
		{"ParseAlgorithm/valid", false,
			func() (any, error) { return ParseAlgorithm("reps") },
			func() (any, error) { return sched.ParseAlgorithm("reps") }},
		{"ParseAlgorithm/invalid", true,
			func() (any, error) { return ParseAlgorithm("nope") },
			func() (any, error) { return sched.ParseAlgorithm("nope") }},
		{"NewWarmCache", false,
			func() (any, error) { return NewWarmCache(), nil },
			func() (any, error) { return warm.New(), nil }},
		{"NewJSONLTracer/valid", false,
			func() (any, error) { return jsonlOutput(NewJSONLTracer, new(bytes.Buffer)) },
			func() (any, error) { return jsonlOutput(sched.NewJSONLTracer, new(bytes.Buffer)) }},
		{"NewJSONLTracer/invalid", true,
			func() (any, error) { return jsonlOutput(NewJSONLTracer, failWriter{}) },
			func() (any, error) { return jsonlOutput(sched.NewJSONLTracer, failWriter{}) }},
		{"MultiTracer/valid", false,
			func() (any, error) { return MultiTracer(counting, nop, counting), nil },
			func() (any, error) { return sched.Multi(counting, nop, counting), nil }},
		{"MultiTracer/invalid", false, // only no-op tracers: nothing to fan out to
			func() (any, error) { return MultiTracer(nop, nil), nil },
			func() (any, error) { return sched.Multi(nop, nil), nil }},
	} {
		got, gotErr := tc.got()
		want, wantErr := tc.want()
		if (gotErr != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %t", tc.name, gotErr, tc.wantErr)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: facade returned (%#v, %v), internal (%#v, %v)", tc.name, got, gotErr, want, wantErr)
		}
	}
}
