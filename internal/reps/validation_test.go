package reps_test

import (
	"testing"

	"see/internal/engines"
	"see/internal/sched"
	"see/internal/topo"
)

// TestNewEngineValidation checks that REPS rejects a nil network and an
// empty demand set. reps.New takes a built segment set, so the instance
// checks run in engines before it is called; this pins that both
// construction paths of REPS still go through them.
func TestNewEngineValidation(t *testing.T) {
	net, pairs := topo.Motivation()
	if _, err := engines.New(sched.REPS, nil, pairs, engines.Config{}); err == nil {
		t.Error("New: nil network accepted")
	}
	if _, err := engines.New(sched.REPS, net, nil, engines.Config{}); err == nil {
		t.Error("New: empty pairs accepted")
	}
	if _, err := engines.NewResilient(sched.REPS, nil, pairs, engines.Config{}); err == nil {
		t.Error("NewResilient: nil network accepted")
	}
	if _, err := engines.NewResilient(sched.REPS, net, nil, engines.Config{}); err == nil {
		t.Error("NewResilient: empty pairs accepted")
	}
}
