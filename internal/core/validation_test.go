package core_test

import (
	"testing"

	"see/internal/engines"
	"see/internal/sched"
	"see/internal/topo"
)

// TestNewEngineValidation checks that every scheme built on this package
// rejects a nil network and an empty demand set. core.New takes a built
// segment set, so the instance checks run in engines before it is called;
// this pins that each construction path of SEE, SEE-Aware and E2E still
// goes through them.
func TestNewEngineValidation(t *testing.T) {
	net, pairs := topo.Motivation()
	for _, alg := range []sched.Algorithm{sched.SEE, sched.SEEAware, sched.E2E} {
		if _, err := engines.New(alg, nil, pairs, engines.Config{}); err == nil {
			t.Errorf("New(%v): nil network accepted", alg)
		}
		if _, err := engines.New(alg, net, nil, engines.Config{}); err == nil {
			t.Errorf("New(%v): empty pairs accepted", alg)
		}
		if _, err := engines.NewResilient(alg, nil, pairs, engines.Config{}); err == nil {
			t.Errorf("NewResilient(%v): nil network accepted", alg)
		}
		if _, err := engines.NewResilient(alg, net, nil, engines.Config{}); err == nil {
			t.Errorf("NewResilient(%v): empty pairs accepted", alg)
		}
	}
}
