GO ?= go

# ci is the tier-1 gate: static checks, a full build, the race-enabled test
# suite (which exercises the parallel sweep executor), the benchmark
# module's vet and tests, a short substrate benchmark smoke, schema
# validation of the committed BENCH_*.json trajectory, a chaos smoke run,
# and a fault-spec fuzz smoke.
.PHONY: ci
ci: fmt vet staticcheck rand-audit build test perfbench bench-smoke bench-check chaos chaos-serve fuzz-smoke replay-golden

# fmt fails if any tracked Go file is not gofmt-clean, listing the files.
.PHONY: fmt
fmt:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "fmt: not gofmt-clean (run gofmt -w):"; \
		echo "$$unformatted"; \
		exit 1; \
	fi; \
	echo "fmt: clean"

.PHONY: vet
vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools with zero findings required. The
# binary is not vendored; the target is a no-op where it is not installed
# (the GitHub workflow installs a pinned version, so CI always runs it).
.PHONY: staticcheck
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# rand-audit fails if randomness-sensitive packages construct their own RNGs
# instead of drawing from named sim.Engine.Rand streams. Direct rand.New /
# rand.NewSource calls there would silently break byte-identical reruns;
# this grep lint keeps new offenders out.
.PHONY: rand-audit
rand-audit:
	@offenders=$$(grep -rn 'rand\.New\|rand\.NewSource' \
		--include='*.go' internal/workload internal/serve internal/scenario \
		| grep -v _test.go; true); \
	if [ -n "$$offenders" ]; then \
		echo "rand-audit: direct RNG construction in engine-seeded packages:"; \
		echo "$$offenders"; \
		echo "draw from sim.Engine.Rand(name) instead"; \
		exit 1; \
	fi; \
	echo "rand-audit: clean"

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test -race -timeout 45m ./...

# perfbench vets and tests the benchmark's nested module, which ./... above
# never reaches, so an internal API change it compiles against fails here
# rather than when the benchmark is built.
.PHONY: perfbench
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The hot-path benchmark set tracked by the BENCH_*.json trajectory: the
# substrate micro-benchmarks (event heap, timers, observability fast paths,
# quantile sketch, serving-scheduler iteration, the serving replica's
# decode-span planner under a clock lock, one power-capped GPU phase,
# which the throttle-ratio memo answers after its first op, the cap solve
# itself on a ring of distinct phases the memo never sees, the JSONL read
# path over the three record formats) plus the two end-to-end rows, one
# per backend:
# the serve-mode day and the slot-model hour behind the paper figures.
# BENCH_MICRO is the -bench regexp for the fast ones; BENCH_E2E runs
# separately because one iteration simulates a whole row and needs its own
# -benchtime. BENCH_REQUIRE joins every name from the sets above;
# polca-bench -require fails the target if any stops matching, so a
# renamed benchmark can never silently drop out of the smoke. One
# BenchmarkScanJSONL op decodes 1,300 records, so the smoke runs it apart
# from the substrate set, at fewer iterations.
BENCH_SUBSTRATE = BenchmarkGPUPhase|BenchmarkThrottleSolve|BenchmarkEngineEvents|BenchmarkEnginePeriodic|BenchmarkQueuePushPop|BenchmarkTimerStop|BenchmarkTracerDisabled|BenchmarkTracerEnabled|BenchmarkServeTracerDisabled|BenchmarkSpanTracerDisabled|BenchmarkQuantileSketch|BenchmarkScheduler|BenchmarkDecodeSpan|BenchmarkTSDBIngest|BenchmarkRuleEval|BenchmarkRetryQueue|BenchmarkScenarioSample|BenchmarkDecisionRecord
BENCH_MICRO = ^($(BENCH_SUBSTRATE)|BenchmarkScanJSONL)$$
BENCH_E2E = ^(BenchmarkServeDay|BenchmarkRowHour)$$
comma := ,
BENCH_REQUIRE = $(subst |,$(comma),$(BENCH_SUBSTRATE)|BenchmarkScanJSONL|$(patsubst ^(%)$$,%,$(BENCH_E2E)))
# The engine's repeating-timer dispatch, the serving replica's
# iteration loop and decode-span planner, and the telemetry ingest, rule-evaluation,
# failover-requeue, scenario request-generation, and decision-input
# recording ticks run inside the simulator's hot loop; -zero-alloc
# hard-fails the build the moment any of them allocates, with no baseline
# artifact needed.
BENCH_ZERO_ALLOC = BenchmarkEnginePeriodic,BenchmarkScheduler,BenchmarkDecodeSpan,BenchmarkTSDBIngest,BenchmarkRuleEval,BenchmarkRetryQueue,BenchmarkScenarioSample,BenchmarkDecisionRecord
BENCH_PKGS = . ./internal/gpu ./internal/serve ./internal/obs ./internal/cluster ./internal/scenario

# bench-smoke runs the hot-path set briefly — enough to catch an allocation
# regression on the event path, the disabled observability fast paths, the
# continuous-batching iteration loop, or the t-digest Add path without
# paying for a full run — then asserts every listed benchmark actually ran.
.PHONY: bench-smoke
bench-smoke:
	@set -e; out=$$(mktemp); \
	$(GO) test -run '^$$' -bench '^($(BENCH_SUBSTRATE))$$' -benchmem -benchtime 200000x $(BENCH_PKGS) > $$out; \
	$(GO) test -run '^$$' -bench '^BenchmarkScanJSONL$$' -benchmem -benchtime 200x ./internal/obs >> $$out; \
	$(GO) test -run '^$$' -bench '$(BENCH_E2E)' -benchmem -benchtime 1x . >> $$out; \
	cat $$out; \
	$(GO) run ./cmd/polca-bench -require '$(BENCH_REQUIRE)' -zero-alloc '$(BENCH_ZERO_ALLOC)' $$out; \
	rm -f $$out

# bench-json runs the hot-path set at full benchtime and writes the
# versioned polca-bench/v1 artifact (BENCH_JSON, default BENCH_new.json).
# Compare against the last committed snapshot with
#   go run ./cmd/polca-bench -compare BENCH_N.json BENCH_new.json
# which fails on any allocs/op increase and warns on >15% ns/op rises.
# The end-to-end rows run at -cpu 1: with two or more Ps their allocs/op
# drift by a few between runs of one binary, and at one P they drift less
# (BenchmarkRowHour's repeat).
BENCH_JSON ?= BENCH_new.json
.PHONY: bench-json
bench-json:
	@set -e; out=$$(mktemp); \
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchmem $(BENCH_PKGS) > $$out; \
	$(GO) test -run '^$$' -bench '$(BENCH_E2E)' -benchmem -benchtime 3x -cpu 1 . >> $$out; \
	cat $$out; \
	$(GO) run ./cmd/polca-bench -require '$(BENCH_REQUIRE)' -zero-alloc '$(BENCH_ZERO_ALLOC)' $$out > /dev/null; \
	$(GO) run ./cmd/polca-bench -o $(BENCH_JSON) $$out; \
	rm -f $$out

# bench-check schema-validates every committed BENCH_*.json so the
# trajectory artifacts cannot rot unnoticed.
.PHONY: bench-check
bench-check:
	$(GO) run ./cmd/polca-bench -check BENCH_*.json

# bench-compare regenerates the artifact and diffs it against the newest
# committed BENCH_*.json. Wall-clock deltas only warn on shared runners;
# allocs/op increases fail.
.PHONY: bench-compare
bench-compare:
	@set -e; \
	base=$$(ls BENCH_*.json 2>/dev/null | grep -v '^$(BENCH_JSON)$$' | sort -V | tail -1); \
	if [ -z "$$base" ]; then echo "bench-compare: no committed BENCH_*.json baseline"; exit 1; fi; \
	$(MAKE) bench-json BENCH_JSON=$(BENCH_JSON); \
	$(GO) run ./cmd/polca-bench -compare $$base $(BENCH_JSON)

# bench runs every benchmark, including full artifact regeneration.
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# chaos is a short fault-sweep smoke: one day on a small row under the mixed
# scenario with every degradation path armed. It exercises the injector, the
# telemetry guard, the deadman watchdog, bounded retries, and stale-command
# drops end to end; any panic or spec-parse regression fails the target.
.PHONY: chaos
chaos:
	$(GO) run ./cmd/polca-sim -days 1 -servers 16 \
		-faults "tdrop=0.05,tspike=0.02:0.5,tstuck=10h+30m,crash=6h+20,oobburst=11h+15m,kill=2@8h+1h,slow=2:1.5" \
		-guard -watchdog 5 -oob-retries 8 -oob-backoff 4s -drop-stale

# chaos-serve is the serve-mode counterpart: the race-enabled acceptance
# suite for request failover, class shedding, circuit breaking, and drain
# windows, plus one end-to-end chaos day on the serving backend with the
# full fault-tolerance stack armed.
.PHONY: chaos-serve
chaos-serve:
	$(GO) test -race -run 'TestServeFailoverBeatsDropOnly|TestServeClassShedProtectsCritical|TestServeSafetyInvariantUnderFaults|TestServeFaultToleranceDeterministic|TestServeKVConservationAcrossFailover|TestServeQuiescentFTDoesNotPerturb|TestServeDrainWindows' ./internal/cluster
	$(GO) run ./cmd/polca-sim -days 1 -servers 16 -serve \
		-faults "tdrop=0.05,crash=6h+20,oobburst=11h+15m,kill=4@8h+1h,drain=2@14h+30m" \
		-guard -watchdog 5 -oob-retries 8 -oob-backoff 4s -drop-stale \
		-retries 3 -retry-backoff 4s -class-shed -circuit-sheds 10 -watchdog-drain

# fuzz-smoke runs the fuzzers briefly: round-trip and never-panic
# properties over the faults and scenario grammars and the request-trace
# CSV loader, the event engine's dispatch order against its reference
# scheduler under seeded random workloads, the GPU power-cap solver
# against its reference bisection, the JSONL record decoder against its
# encoding/json reference, the event, span and decision log scanners on
# arbitrary files (no panic, and an accepted file's records numbered
# exactly 1..N), the rung-table threshold policies against hand-written
# Table 5 and 1-Thresh state machines, the serve replica's decode-span
# planner against its per-stride reference under random scripts, traced
# and span-recorded, and self-replay fidelity over generated short rows
# (every decision log must replay against its own configuration with no
# diverged decision).
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFaultSpec -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzScenarioSpec -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzLoadRequestsCSV -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzEngineMatchesReference -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzThrottleRatio -fuzztime 10s ./internal/gpu
	$(GO) test -run '^$$' -fuzz FuzzRecordDecoders -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzScanLog -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzPolicyMatchesTable5 -fuzztime 10s ./internal/polca
	$(GO) test -run '^$$' -fuzz FuzzCoalescingMatchesPerStride -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzSelfReplay -fuzztime 10s ./internal/replay

# replay-golden pins the counterfactual-replay pipeline end to end: the
# polca-replay CLI over the committed decision-log fixture must reproduce
# the golden report byte for byte (self-replay fidelity line included),
# and -self must exit clean. Refresh after intentional report changes with
#   go test -run TestGolden -update ./cmd/polca-replay
.PHONY: replay-golden
replay-golden:
	$(GO) test -run 'TestGolden|TestSelfMode' ./cmd/polca-replay
	$(GO) run ./cmd/polca-replay -self -no-provenance cmd/polca-replay/testdata/decisions.jsonl

# cover writes a coverage profile across all packages and prints the
# per-function tail plus the total.
.PHONY: cover
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 20
