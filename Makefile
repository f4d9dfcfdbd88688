GO ?= go

.PHONY: all build test vet race verify portable-check examples-smoke bench-check bench-smoke profile chaos-smoke serve-smoke fidelity-smoke docs-check cover cover-update fuzz-smoke figures

# BENCHTIME is the per-benchmark budget of `make profile`, e.g.
#   make profile BENCHTIME=5s
BENCHTIME ?= 1s

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# verify is the repo's full gate: vet, the docs gate, build, an arm64
# compile of the portable kernels, a run of every example program, the
# test suite under the race detector (the experiment harness runs trials
# concurrently), the per-package coverage floor, a short fuzz pass over
# every committed fuzz target, a bench smoke (one iteration of the kernel
# benchmarks, then a one-second run of every bench/ workload that must
# reproduce the seed-1 digests recorded in bench/digests.json), a chaos
# smoke that drives fault injection and the degradation ladder end-to-end
# through the CLI, a serve smoke that kills and resumes a checkpointing
# service-mode run, and a fidelity smoke that pins the floor layer's
# disabled path to the committed golden and drives floors + swap order +
# carry-aware pricing end-to-end. bench-check compiles and tests the
# benchmark harness in bench/.
verify: vet docs-check build portable-check examples-smoke bench-check race cover fuzz-smoke bench-smoke chaos-smoke serve-smoke fidelity-smoke

# portable-check compiles the tree for arm64, where internal/lp has no
# assembly and runs its portable loops: an amd64 build never compiles
# that path, and vet's asmdecl check covers the amd64 frames already.
portable-check:
	GOARCH=arm64 $(GO) vet ./internal/lp
	GOARCH=arm64 $(GO) build ./...

# examples-smoke runs every program under examples/ and fails on the first
# non-zero exit (each takes well under a second with a warm build cache):
# `build` only compiles them, so a runtime break would otherwise go unseen.
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "$(GO) run ./$${d%/}"; $(GO) run ./$${d%/} > /dev/null; done

# bench-check vets and runs the benchmark harness's own tests (about 4 s).
# bench/ is its own module, so the root `go build ./...` never compiles it,
# yet it calls the engine, registry and bank surface directly.
bench-check:
	$(GO) -C bench vet -tags benchcheck .
	$(GO) -C bench test -count=1 -tags benchcheck .

# cover enforces the committed per-package statement-coverage floors in
# COVERAGE.txt (cmd/covercheck); cover-update re-derives the floors after
# an intentional test-surface change.
cover:
	$(GO) test -cover ./... | $(GO) run ./cmd/covercheck

cover-update:
	$(GO) test -cover ./... | $(GO) run ./cmd/covercheck -update

# fuzz-smoke runs each committed fuzz target for a few seconds beyond its
# seed corpus — a quick shake, not a soak (go test accepts one -fuzz
# pattern per package invocation, hence the separate lines). FuzzRestore,
# FuzzShortestPathBound and FuzzYenMatchesReference cap input
# minimization at 1s: minimizing each
# new interesting input (a whole checkpoint, a graph) would otherwise take
# most of the fuzz time.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/chaos
	$(GO) test -fuzz=FuzzLoadEdgeList -fuzztime=$(FUZZTIME) -run='^$$' ./internal/topo
	$(GO) test -fuzz=FuzzParseFloorSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/qnet
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ckpt
	$(GO) test -fuzz=FuzzParseArrivals -fuzztime=$(FUZZTIME) -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzRestore -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzShortestPathBound -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/graph
	$(GO) test -fuzz=FuzzYenMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/graph

# docs-check keeps the documentation and the API honest (cmd/docscheck):
# a gofmt-clean tree, a package comment on every internal/* package,
# README.md's seesim flag table equal to the registered flags and its
# architecture tree equal to the internal/ packages, a godoc Example in
# internal/lp and internal/flow, examples/ on the public API only, and no
# name that no non-test code of the module or bench/ references unless
# cmd/docscheck/testdata/deadnames.txt lists it with a reason (~2 s).
docs-check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) run ./cmd/docscheck

# chaos-smoke runs seesim with a canned fault spec plus an LP budget tight
# enough to exercise the injector, the JSONL sink and the greedy fallback
# in two slots, then a correlated-fault run (disc cut + brownout + flap,
# fault-aware planning) under -race to shake the new capacity paths.
chaos-smoke:
	set -e; dir=$$(mktemp -d "$${TMPDIR:-/tmp}/see-chaos-smoke.XXXXXX"); \
	$(GO) run ./cmd/seesim -nodes 40 -pairs 6 -trials 1 -slots 2 -alg all \
		-faults 'seed=7;node=3@1-;decohere=0.01' -slot-budget 5s; \
	$(GO) run ./cmd/seesim -nodes 40 -pairs 6 -trials 1 -slots 2 -alg see \
		-slot-budget 1ns -trace-jsonl $$dir/see-chaos-smoke.jsonl; \
	$(GO) run -race ./cmd/seesim -nodes 40 -pairs 6 -trials 1 -slots 6 -workers 4 \
		-alg see,contend,qpass -fault-aware \
		-faults 'seed=7;cut:2500,2500,1500@0-;brown:1,0.4@0-;flap:2,3,0.67@0-;node=!4@4-5'; \
	rm -rf "$$dir"

# serve-smoke is the kill/resume invariant end-to-end through real
# processes: run service mode uninterrupted, run it again with periodic
# checkpoints and a deterministic crash (-die-at, exit 3), resume from
# the surviving checkpoint, and require the concatenated slot lines and
# the final summary to be byte-identical to the uninterrupted run.
SERVE_SMOKE_ARGS = -serve -alg greedy,contend -nodes 40 -pairs 4 -slots 20 -seed 5 \
	-arrivals 'bursty;rate=2;burst-rate=8;switch=0.2;users=40;max-active=30'
# go run would collapse the exit code to 1, so the recipe runs the built
# binary: the crash must exit with the -die-at code 3, not a generic
# failure. Checkpoints land after slots 6 and 13; dying after slot 11
# leaves the slot-7 one, so Greedy resumes at slot 7 and Contend (which
# the crash run never reached) starts from slot 0. Splicing the crashed
# prefix onto the resumed lines must reproduce the full run exactly.
serve-smoke:
	set -e; dir=$$(mktemp -d "$${TMPDIR:-/tmp}/see-serve-smoke.XXXXXX"); mkdir -p $$dir/ckpt; \
	$(GO) build -o $$dir/seesim ./cmd/seesim; \
	$$dir/seesim $(SERVE_SMOKE_ARGS) > $$dir/full.out; \
	code=0; $$dir/seesim $(SERVE_SMOKE_ARGS) \
		-ckpt-dir $$dir/ckpt -ckpt-every 7 -die-at 11 \
		> $$dir/crash.out || code=$$?; \
		if [ $$code -ne 3 ]; then \
		echo "serve-smoke: crash run exited $$code, want 3"; exit 1; fi; \
	$$dir/seesim $(SERVE_SMOKE_ARGS) \
		-ckpt-dir $$dir/ckpt -ckpt-every 7 -resume \
		> $$dir/resume.out; \
	grep '^slot' $$dir/full.out > $$dir/full.slots; \
	{ grep '^slot Greedy' $$dir/crash.out | head -n 7; \
		grep '^slot Greedy' $$dir/resume.out; \
		grep '^slot Contend' $$dir/resume.out; } \
		> $$dir/resumed.slots; \
	diff $$dir/full.slots $$dir/resumed.slots; \
	grep -A4 'service summary' $$dir/full.out > $$dir/full.sum; \
	grep -A4 'service summary' $$dir/resume.out > $$dir/resume.sum; \
	diff $$dir/full.sum $$dir/resume.sum; \
	rm -rf "$$dir"; \
	echo "serve-smoke: kill/resume byte-identical"

# fidelity-smoke pins the fidelity layer's two promises through the real
# binary: with no floor flag (and the explicit default swap order) the
# output is byte-identical to the committed pre-floor golden, and a
# floored run with greedy swap order, carry-over aging and carry-aware LP
# pricing completes cleanly end-to-end.
fidelity-smoke:
	set -e; dir=$$(mktemp -d "$${TMPDIR:-/tmp}/see-fidelity-smoke.XXXXXX"); \
	$(GO) build -o $$dir/seesim ./cmd/seesim; \
	$$dir/seesim -alg see -nodes 30 -pairs 5 -trials 2 -seed 7 -workers 1 \
		> $$dir/plain.out; \
	diff cmd/seesim/testdata/golden/see.txt $$dir/plain.out; \
	$$dir/seesim -alg see -nodes 30 -pairs 5 -trials 2 -seed 7 -workers 1 \
		-swap-order path > $$dir/knobs.out; \
	diff $$dir/plain.out $$dir/knobs.out; \
	$$dir/seesim -alg see,oracle -nodes 40 -pairs 6 -trials 2 -slots 4 -seed 7 \
		-workers 2 -fidelity-floor '0.65;0=0.7' -swap-order greedy \
		-carry -carry-retention 0.9 -carry-min-scale 0.5 -carry-aware-lp > /dev/null; \
	rm -rf "$$dir"; \
	echo "fidelity-smoke: floor-disabled output byte-identical to committed golden"

# bench-smoke executes each substrate benchmark, the SEE, REPS, E2E,
# Greedy and Contend slot kernels, the service-mode slot over Contend and
# Greedy, the candidate-set build and the Greedy,
# Contend and QPass construction kernels exactly once — a fast compile-and-run check, not a measurement —
# then runs the repo benchmark (bench/run.sh, BENCHMARK.json) for one
# second per workload at seed 1, each workload in its own process. It
# fails unless every workload reports `correct: true` with no failed op:
# the per-slot throughput digest of the first rotation matches
# bench/digests.json, the oracle bound and the fidelity floors hold, and
# no op errors. Every run finishes at least one rotation, so the verdict
# depends on the code's bits, never on the host's speed; speed is judged
# by alternated parent/change runs against BENCHMARK.json's bounds.
bench-smoke:
	$(GO) test -bench='ColumnGeneration|YenKShortest|SegmentBuild$$|Slot(SEE|REPS|E2E|Greedy|Contend)$$|ServeSlot|Build(Greedy|Contend|QPass)$$' -benchtime=1x -run='^$$' .
	bash bench/run.sh --seconds 1

# profile captures CPU and allocation profiles of one root benchmark and
# prints the top functions of each — the entry point of the workflow in
# docs/PROFILING.md. PROFILE_BENCH picks the benchmark (a -bench regexp;
# default one SEE slot), e.g.
#   make profile PROFILE_BENCH='ColumnGeneration$'
# for one LP solve. Profiles land in $TMPDIR/see-profile (default
# /tmp/see-profile) for interactive follow-up with `go tool pprof`.
PROFILE_BENCH ?= SlotSEE$$

profile:
	@set -e; dir="$${TMPDIR:-/tmp}/see-profile"; mkdir -p "$$dir"; \
	$(GO) test -bench='$(PROFILE_BENCH)' -benchtime=$(BENCHTIME) -run='^$$' \
		-cpuprofile "$$dir/cpu.pprof" -memprofile "$$dir/mem.pprof" \
		-o "$$dir/see.test" .; \
	$(GO) tool pprof -top -nodecount=15 "$$dir/see.test" "$$dir/cpu.pprof"; \
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_space "$$dir/see.test" "$$dir/mem.pprof"

figures:
	$(GO) run ./cmd/seefig -fig 3
