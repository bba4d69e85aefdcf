GO ?= go

.PHONY: all build test vet race verify bench bench-smoke bench-pr4 bench-pr9 profile chaos-smoke serve-smoke fidelity-smoke docs-check cover cover-update fuzz-smoke figures

# bench narrows the benchmark pattern / iteration budget, e.g.
#   make bench BENCH=ColumnGeneration BENCHTIME=5s
BENCH ?= .
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

# verify is the repo's full gate: vet, the docs gate, build, the test
# suite under the race detector (the experiment harness runs trials
# concurrently), the per-package coverage floor, a short fuzz pass over
# every committed fuzz target, a single-iteration pass over the substrate
# benchmarks so perf-path regressions that only bench code exercises are
# caught early, a chaos smoke that drives fault injection and the
# degradation ladder end-to-end through the CLI, a serve smoke that
# kills and resumes a checkpointing service-mode run, and a fidelity
# smoke that pins the floor layer's disabled path to the committed
# golden and drives floors + swap order + carry-aware pricing end-to-end.
verify: vet docs-check build race cover fuzz-smoke bench-smoke chaos-smoke serve-smoke fidelity-smoke

# cover enforces the committed per-package statement-coverage floors in
# COVERAGE.txt (cmd/covercheck); cover-update re-derives the floors after
# an intentional test-surface change.
cover:
	$(GO) test -cover ./... | $(GO) run ./cmd/covercheck

cover-update:
	$(GO) test -cover ./... | $(GO) run ./cmd/covercheck -update

# fuzz-smoke runs each committed fuzz target for a few seconds beyond its
# seed corpus — a quick shake, not a soak (go test accepts one -fuzz
# pattern per package invocation, hence the separate lines).
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/chaos
	$(GO) test -fuzz=FuzzLoadEdgeList -fuzztime=$(FUZZTIME) -run='^$$' ./internal/topo
	$(GO) test -fuzz=FuzzParseFloorSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/qnet
	$(GO) test -fuzz=FuzzDecodeEngineState -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ckpt
	$(GO) test -fuzz=FuzzParseArrivalSpec -fuzztime=$(FUZZTIME) -run='^$$' ./internal/serve

# docs-check keeps the documentation honest: gofmt-clean tree, a package
# comment on every internal/* package, and every seesim flag present in
# README.md's flag table (cmd/docscheck).
docs-check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) run ./cmd/docscheck

# chaos-smoke runs seesim with a canned fault spec plus an LP budget tight
# enough to exercise the injector, the JSONL sink and the greedy fallback
# in two slots, then a correlated-fault run (disc cut + brownout + flap,
# fault-aware planning) under -race to shake the new capacity paths.
chaos-smoke:
	$(GO) run ./cmd/seesim -nodes 40 -pairs 6 -trials 1 -slots 2 -alg all \
		-faults 'seed=7;node=3@1-;loss=0.05;decohere=0.01' -slot-budget 5s
	$(GO) run ./cmd/seesim -nodes 40 -pairs 6 -trials 1 -slots 2 -alg see \
		-slot-budget 1ns -trace-jsonl /tmp/see-chaos-smoke.jsonl
	$(GO) run -race ./cmd/seesim -nodes 40 -pairs 6 -trials 1 -slots 6 -workers 4 \
		-alg see,contend,qpass -fault-aware \
		-faults 'seed=7;cut:2500,2500,1500@0-;brown:1,0.4@0-;flap:2,3,0.67@0-;node=!4@4-5'

# serve-smoke is the kill/resume invariant end-to-end through real
# processes: run service mode uninterrupted, run it again with periodic
# checkpoints and a deterministic crash (-die-at, exit 3), resume from
# the surviving checkpoint, and require the concatenated slot lines and
# the final summary to be byte-identical to the uninterrupted run.
SERVE_SMOKE_ARGS = -serve -alg greedy,contend -nodes 40 -pairs 4 -slots 20 -seed 5 \
	-arrivals 'bursty;rate=2;burst-rate=8;switch=0.2;users=40;max-active=30'
serve-smoke:
	@rm -rf /tmp/see-serve-smoke && mkdir -p /tmp/see-serve-smoke/ckpt
	$(GO) build -o /tmp/see-serve-smoke/seesim ./cmd/seesim
	/tmp/see-serve-smoke/seesim $(SERVE_SMOKE_ARGS) > /tmp/see-serve-smoke/full.out
	@# go run would collapse the exit code to 1, so run the built binary:
	@# the crash must exit with the -die-at code 3, not a generic failure.
	/tmp/see-serve-smoke/seesim $(SERVE_SMOKE_ARGS) \
		-ckpt-dir /tmp/see-serve-smoke/ckpt -ckpt-every 7 -die-at 11 \
		> /tmp/see-serve-smoke/crash.out; \
		code=$$?; if [ $$code -ne 3 ]; then \
		echo "serve-smoke: crash run exited $$code, want 3"; exit 1; fi
	/tmp/see-serve-smoke/seesim $(SERVE_SMOKE_ARGS) \
		-ckpt-dir /tmp/see-serve-smoke/ckpt -ckpt-every 7 -resume \
		> /tmp/see-serve-smoke/resume.out
	@grep '^slot' /tmp/see-serve-smoke/full.out > /tmp/see-serve-smoke/full.slots
	@# Checkpoints land after slots 6 and 13; dying after slot 11 leaves
	@# the slot-7 one, so Greedy resumes at slot 7 and Contend (which the
	@# crash run never reached) starts from slot 0. Splicing the crashed
	@# prefix onto the resumed lines must reproduce the full run exactly.
	@{ grep '^slot Greedy' /tmp/see-serve-smoke/crash.out | head -n 7; \
		grep '^slot Greedy' /tmp/see-serve-smoke/resume.out; \
		grep '^slot Contend' /tmp/see-serve-smoke/resume.out; } \
		> /tmp/see-serve-smoke/resumed.slots
	diff /tmp/see-serve-smoke/full.slots /tmp/see-serve-smoke/resumed.slots
	@grep -A4 'service summary' /tmp/see-serve-smoke/full.out > /tmp/see-serve-smoke/full.sum
	@grep -A4 'service summary' /tmp/see-serve-smoke/resume.out > /tmp/see-serve-smoke/resume.sum
	diff /tmp/see-serve-smoke/full.sum /tmp/see-serve-smoke/resume.sum
	@echo "serve-smoke: kill/resume byte-identical"

# fidelity-smoke pins the fidelity layer's two promises through the real
# binary: with no floor flag (and the explicit default swap order) the
# output is byte-identical to the committed pre-floor golden, and a
# floored run with greedy swap order, carry-over aging and carry-aware LP
# pricing completes cleanly end-to-end.
fidelity-smoke:
	@rm -rf /tmp/see-fidelity-smoke && mkdir -p /tmp/see-fidelity-smoke
	$(GO) build -o /tmp/see-fidelity-smoke/seesim ./cmd/seesim
	/tmp/see-fidelity-smoke/seesim -alg see -nodes 30 -pairs 5 -trials 2 -seed 7 -workers 1 \
		> /tmp/see-fidelity-smoke/plain.out
	diff cmd/seesim/testdata/golden/see.txt /tmp/see-fidelity-smoke/plain.out
	/tmp/see-fidelity-smoke/seesim -alg see -nodes 30 -pairs 5 -trials 2 -seed 7 -workers 1 \
		-swap-order path > /tmp/see-fidelity-smoke/knobs.out
	diff /tmp/see-fidelity-smoke/plain.out /tmp/see-fidelity-smoke/knobs.out
	/tmp/see-fidelity-smoke/seesim -alg see,oracle -nodes 40 -pairs 6 -trials 2 -slots 4 -seed 7 \
		-workers 2 -fidelity-floor '0.65;0=0.7' -swap-order greedy \
		-carry -carry-retention 0.9 -carry-min-scale 0.5 -carry-aware-lp > /dev/null
	@echo "fidelity-smoke: floor-disabled output byte-identical to committed golden"

# bench records the run in BENCH_PR2.json next to the committed pre-change
# baseline (BenchmarkColumnGeneration at commit 51e778b, serial kernel:
# 663402285 ns/op) so the speedup claim is reproducible from the repo.
bench:
	$(GO) test -bench='$(BENCH)' -benchmem -benchtime=$(BENCHTIME) -timeout 30m -run='^$$' . | \
		$(GO) run ./cmd/benchjson -out BENCH_PR2.json \
		-note 'column-generation kernel optimization PR; baseline from commit 51e778b' \
		-baseline BenchmarkColumnGeneration=663402285

# bench-smoke executes each substrate benchmark exactly once — a fast
# compile-and-run check, not a measurement — then guards the warm-start
# workload against the committed BENCH_PR9.json record: if warm slots/sec
# drops below 80% of the committed number, the hot path regressed and the
# target fails (cmd/benchjson -check; docs/PROFILING.md is the follow-up).
bench-smoke:
	$(GO) test -bench='ColumnGeneration|LPDenseSolve|YenKShortest' -benchtime=1x -run='^$$' .
	$(GO) test -bench='WorkloadSlotsWarm' -benchmem -benchtime=3x -run='^$$' . | \
		$(GO) run ./cmd/benchjson -check BENCH_PR9.json -metric slots/sec -min-ratio 0.8

# bench-pr4 records the cross-slot carry-over workload benchmarks in
# BENCH_PR4.json; the baseline is BenchmarkWorkloadMemoryless measured on
# the same host, so the delivered/slot gain of the state bank is readable
# from the file alone.
bench-pr4:
	$(GO) test -bench='WorkloadCarryOver|WorkloadMemoryless' -benchmem -benchtime=$(BENCHTIME) -count=3 -timeout 30m -run='^$$' . | \
		$(GO) run ./cmd/benchjson -out BENCH_PR4.json \
		-note 'cross-slot entanglement carry-over PR; memoryless workload is the in-file baseline'

# bench-pr9 records the warm-start workload benchmarks in BENCH_PR9.json:
# the cold variant rebuilds all planning per iteration (the pre-PR-9 cost
# of every scheduler restart), the warm variant replays the memoized
# artifacts, and the per-slot benches carry pre-PR ns/op baselines so the
# scratch-arena gains are readable from the file alone. DESIGN.md §9
# explains how to read and regenerate the record.
bench-pr9:
	$(GO) test -bench='WorkloadSlotsCold|WorkloadSlotsWarm|SlotSEE$$|SlotREPS' -benchmem -benchtime=$(BENCHTIME) -timeout 30m -run='^$$' . | \
		$(GO) run ./cmd/benchjson -out BENCH_PR9.json \
		-note 'warm-start PR; cold workload variant is the in-file baseline, per-slot ns/op baselines from commit a564a5e' \
		-baseline BenchmarkSlotSEE=546727 -baseline BenchmarkSlotREPS=4507219

# profile captures CPU and allocation profiles of the warm workload and
# prints the top functions of each — the entry point of the workflow in
# docs/PROFILING.md. Profiles land in /tmp/see-profile for interactive
# follow-up with `go tool pprof`.
profile:
	@mkdir -p /tmp/see-profile
	$(GO) test -bench='WorkloadSlotsWarm' -benchtime=$(BENCHTIME) -run='^$$' \
		-cpuprofile /tmp/see-profile/cpu.pprof -memprofile /tmp/see-profile/mem.pprof \
		-o /tmp/see-profile/see.test .
	$(GO) tool pprof -top -nodecount=15 /tmp/see-profile/see.test /tmp/see-profile/cpu.pprof
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_space /tmp/see-profile/see.test /tmp/see-profile/mem.pprof

figures:
	$(GO) run ./cmd/seefig -fig 3
