# Tier-1 gate for the memthrottle reproduction. `make check` is what CI
# (and any pre-merge hand check) runs: formatting, vet, a full build,
# and the test suite under the race detector — load-bearing now that
# the experiment run engine (internal/parallel) is concurrent.

GO ?= go

# Benchmarks pinned against the committed BENCH_SIM.json baseline
# (captured on the pre-optimization tree, so the reported speedup is
# the zero-allocation hot path's win). -count repeats each benchmark;
# benchdiff keeps the best run of each. BenchmarkPoolStart is the fluid
# pool's closure entry point, the one the repository benchmark probes.
BENCH_COUNT ?= 3
HOT_BENCHES  = BenchmarkDRAMAccess|BenchmarkStreamPump|BenchmarkPoolStart|BenchmarkCalibrate|BenchmarkCalibrateWarm|BenchmarkCalibrateAdjacentCold|BenchmarkFig13Sweep

# Host-runtime dispatch benchmarks, pinned against the pre-rewrite
# mutex-and-broadcast runtime so the lock-free dispatch win stays
# measured. The 8/32 variants guard the unsharded (Domains=1) dispatch
# path; 64 runs 2 memory domains and 128/256 run 4, pinning the
# sharded-gate scaling past the old single-gate plateau; the
# Domains64x* trio holds workers at 64 and varies only the domain
# count.
HOST_BENCHES = BenchmarkHostRuntimeThroughput|BenchmarkHostRuntimeThroughput8|BenchmarkHostRuntimeThroughput32|BenchmarkHostRuntimeThroughput64|BenchmarkHostRuntimeThroughput128|BenchmarkHostRuntimeThroughput256|BenchmarkHostRuntimeThroughput512|BenchmarkHostRuntimeDomains64x1|BenchmarkHostRuntimeDomains64x2|BenchmarkHostRuntimeDomains64x4|BenchmarkMpmcRingContended|$(SERVE_BENCHES)

# Open-loop serving benchmarks: sustained Submit->Drain throughput at
# 64/128/256 workers (BenchmarkHostServe*), and the gate's one-slot
# claim and release on their own (BenchmarkGateAdmitPerJob). Pinned in
# BENCH_SIM.json so the serving path does not regress.
SERVE_BENCHES = BenchmarkHostServe64|BenchmarkHostServe128|BenchmarkHostServe256|BenchmarkGateAdmitPerJob

# Event-queue benchmarks (EngineStep* in internal/sim), one per regime
# of the merged queue: a single pending event, 256 events a tick apart
# (a DRAM calibration: all wheel slots) and 8 events 50 us apart (a
# simsched run: all far heap). Pinned in BENCH_SIM.json.
SIM_BENCHES  = BenchmarkEngineStepWheel|BenchmarkEngineStepWheelDeep256|BenchmarkEngineStepSparse

# Policy-plugin benchmarks: the PolicyThrottler window boundary —
# per-class aggregation, signal harvest, Observe, decision publish —
# must stay allocation-free, or every W pairs the scheduler hot path
# pays a GC tax the legacy controllers never did.
CORE_BENCHES = BenchmarkPolicyObserve

# Contended-counter microbenchmarks: a single shared atomic counter vs
# per-writer slots packed on shared lines vs the cache-line-padded
# stripes the host runtime's hot-path counters use (internal/stats
# PaddedInt64). The spread is the false-sharing cost the striping pass
# removed; on a single-CPU runner the three coincide.
CONTEND_BENCHES = BenchmarkContendedCounterGlobal|BenchmarkContendedCounterSharedLines|BenchmarkContendedCounterStriped

# Benchmarks pinned allocation-free by `make bench-check`: the
# zero-allocation hot paths from the PR 2 work must never regrow an
# alloc, the warm Calibrator's adjacent re-measure joins them, and the
# gate's one-slot claim and release, the policy-plugin window boundary,
# the event-queue step, in each regime, and the fluid pool's start/fire
# cycle stay allocation-free too.
ZERO_ALLOC   = BenchmarkEngineStepWheel,BenchmarkEngineStepWheelDeep256,BenchmarkEngineStepSparse,BenchmarkDRAMAccess,BenchmarkStreamPump,BenchmarkPoolStart,BenchmarkGateAdmitPerJob,BenchmarkPolicyObserve

.PHONY: check lint fmt vet layout build bench-build test race sweep-same fuzz-smoke flake bench bench-host bench-baseline bench-check ab loc

check: lint build bench-build test race sweep-same fuzz-smoke flake

# lint is the static gate on its own: formatting, go vet, and the
# cache-line layout assertions over the dispatch hot structs.
lint: fmt vet layout

# layout is the in-repo field-alignment gate: TestLayout* pins (via
# unsafe.Offsetof/Sizeof) that every padded hot-path struct keeps its
# CAS-hot and read-mostly fields on distinct 64-byte lines, so an
# innocent field addition cannot silently reintroduce false sharing.
layout:
	$(GO) test -run 'TestLayout|TestPaddedInt64Stride' ./host ./internal/stats

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# bench-build vets and compiles the repository benchmark. bench/ is a
# module of its own, so `go build ./...` and `go test ./...` cannot see
# a deleted symbol it still needs; this can, before BENCHMARK.json's
# driver does.
bench-build:
	$(GO) vet -C bench ./...
	$(GO) build -C bench -o /dev/null .

test:
	$(GO) test ./...

# The race pass re-runs the concurrency-heavy packages under the race
# detector. In host that is one worker runtime (host/runtime.go: pool,
# lazily spawned workers, the park/spin loop over the waiter lot, the
# stage runner with retry, the controller feed, the stall watchdog)
# under two queue disciplines — Run's per-domain gather and scatter
# FIFOs (batch.go), Serve's MPMC rings and admission pump (serve.go) — so
# every suite races the same park, release and wake code: the chaos and
# cancellation suites, TestStress* (hundreds of workers oversubscribing
# the gate, lost-wakeup hunts across back-to-back 1-pair phases) and
# TestStressServe* (concurrent Submit against Drain and live MTL moves
# at 128-160 workers). The parallel run engine joins it. The rest of
# the tree is single-goroutine simulation already covered by `test`.
# RobustnessR2 joins the race pass as the adversarial stress: it fans
# the 15-cell attack grid across 4 workers through parallel.Map while
# each cell drives the class-aware PolicyThrottler (atomic limit and
# blacklist publication against concurrent readers). TestWheel* rides
# along, and TestRunConcurrentRecycling draws simsched's recycled
# runners from their shared pool on four goroutines. internal/core joins
# whole: TestDriverConcurrentReaders holds the one controller driver to
# its contract (mutators under the caller's lock, MTL/ClassLimit/
# Blacklisted/OnSignal from any goroutine) without a runtime around it.
# TestNoise* reads stats.Noise's process-wide factor streams from four
# goroutines while they grow.
race:
	$(GO) test -race ./host/... ./internal/parallel/... ./internal/core
	$(GO) test -race -run 'RobustnessR2' ./internal/experiments
	$(GO) test -race -run 'TestWheel|TestRunConcurrentRecycling' ./internal/sim ./internal/simsched
	$(GO) test -race -run TestNoise ./internal/stats

# sweep-same is the determinism gate of the whole sweep: mtlbench -all
# at one worker and at four must print the same tables, less the
# run-varying lines (the calibration banner, elapsed_sec) and D1H, whose
# counters are host wall-clock. Runs share process-wide state —
# stats.Noise's per-(sigma, seed) factor streams, simsched's recycled
# runners — so a run that leaks into another shows here (~7 s on 2 vCPUs).
SWEEP_STRIP = awk '/^\{/ { buf = ""; d1h = 0 } /"id": "D1H"/ { d1h = 1 } \
	!/elapsed_sec|calibrated platform/ { buf = buf $$0 "\n" } /^\}/ && !d1h { printf "%s", buf }'
sweep-same:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/mtlbench" ./cmd/mtlbench && \
	"$$tmp/mtlbench" -all -format json -j 1 > "$$tmp/j1.json" && \
	"$$tmp/mtlbench" -all -format json -j 4 > "$$tmp/j4.json" && \
	$(SWEEP_STRIP) "$$tmp/j1.json" > "$$tmp/j1" && $(SWEEP_STRIP) "$$tmp/j4.json" > "$$tmp/j4" && \
	test -s "$$tmp/j1" && diff "$$tmp/j1" "$$tmp/j4" && \
	echo "sweep-same: $$(grep -c '"id"' "$$tmp/j1") tables identical at -j 1 and -j 4"

# fuzz-smoke gives the event queue's differential fuzzer (the engine
# against a plain heap, see internal/sim/wheel_test.go) fifteen seconds
# and the waiter lot's protocol fuzzer (park/cancel/unpark/spin calls
# against a sequential model, host/lot_fuzz_test.go) ten on every
# check; `go test` alone only replays their seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzLotProtocol -fuzztime 10s ./host

# flake repeats the host suite where a lost wakeup or a timing
# assumption would show: fifty times at one, two and four Ps, then ten
# times under the race detector (~3 min).
flake:
	$(GO) test -count=50 -cpu 1,2,4 ./host
	$(GO) test -race -count=10 ./host

# bench runs the simulator hot-path benchmarks and reports deltas
# against the committed baseline. bench-baseline rewrites the baseline
# from a fresh run (do this only when intentionally re-pinning).
bench:
	@{ $(GO) test -run '^$$' -bench '^($(SIM_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/sim; \
	   $(GO) test -run '^$$' -bench '^($(CORE_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/core; \
	   $(GO) test -run '^$$' -bench '^($(CONTEND_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/stats; \
	   $(GO) test -run '^$$' -bench '^($(HOT_BENCHES))$$' -benchmem -count $(BENCH_COUNT) .; \
	   $(GO) test -run '^$$' -bench '^($(HOST_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./host; } \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json

# bench-host runs only the host-runtime dispatch benchmarks against the
# committed baseline — the quick loop when iterating on the scheduler.
bench-host:
	@$(GO) test -run '^$$' -bench '^($(HOST_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./host \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json

bench-baseline:
	@{ $(GO) test -run '^$$' -bench '^($(SIM_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/sim; \
	   $(GO) test -run '^$$' -bench '^($(CORE_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/core; \
	   $(GO) test -run '^$$' -bench '^($(CONTEND_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/stats; \
	   $(GO) test -run '^$$' -bench '^($(HOT_BENCHES))$$' -benchmem -count $(BENCH_COUNT) .; \
	   $(GO) test -run '^$$' -bench '^($(HOST_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./host; } \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json -write -note "$(NOTE)"

# bench-check is the regression gate: same benchmarks as `bench`, but
# benchdiff exits nonzero on a >15% ns/op regression against the
# committed baseline or on any allocation in the pinned zero-alloc
# benchmarks.
bench-check:
	@{ $(GO) test -run '^$$' -bench '^($(SIM_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/sim; \
	   $(GO) test -run '^$$' -bench '^($(CORE_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/core; \
	   $(GO) test -run '^$$' -bench '^($(CONTEND_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./internal/stats; \
	   $(GO) test -run '^$$' -bench '^($(HOT_BENCHES))$$' -benchmem -count $(BENCH_COUNT) .; \
	   $(GO) test -run '^$$' -bench '^($(HOST_BENCHES))$$' -benchmem -count $(BENCH_COUNT) ./host; } \
	| $(GO) run ./cmd/benchdiff -baseline BENCH_SIM.json -check -max-regress 0.15 -zero-alloc '$(ZERO_ALLOC)'

# bench-all is the original full benchmark sweep (every paper artifact).
bench-all:
	$(GO) test -bench=. -benchmem

# ab is the procedure bench/README.md asks for before any performance
# claim, as one command: BASE and a copy of the working tree go into a
# temporary directory and the repository benchmark (bench/run.sh) runs
# on the two in PAIRS interleaved pairs, alternating which side goes
# first; prints each side's median and quartiles per end-to-end metric,
# the pairs the change won, and `bench/run.sh -compare` on the last
# pair. ~3.5 min per pair for sim_sweep. See cmd/benchab.
BASE     ?= HEAD
WORKLOAD ?= sim_sweep
PAIRS    ?= 10
ab:
	$(GO) run ./cmd/benchab -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS)

# loc is the size a simplicity PR states: lines of non-test Go per
# package outside bench/ (comments and blanks included) at BASE and in
# the working tree, and the difference.
loc:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive $(BASE) | tar -x -C "$$tmp" && \
	count() { ( cd "$$1" && find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + ) | \
		awk -v side="$$2" '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1 } END { for (p in n) print side, p, n[p] }'; } && \
	{ count "$$tmp" base; count . head; } | \
	awk '{ v[$$1, $$2] = $$3; pkg[$$2] } END { for (p in pkg) printf "%-26s %7d %7d %+7d\n", p, v["base", p], v["head", p], v["head", p] - v["base", p] }' | \
	sort | awk 'BEGIN { printf "%-26s %7s %7s %7s\n", "package", "$(BASE)", "tree", "delta" } \
		{ print; b += $$2; h += $$3 } END { printf "%-26s %7d %7d %+7d\n", "total", b, h, h - b }'
