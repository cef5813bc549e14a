# Tier-1 gate for the memthrottle reproduction. `make check` is what CI
# (and any pre-merge hand check) runs: formatting, vet and the cache-line
# layout assertions (lint), a full build, a vet and build of the bench/
# module (bench-build), the test suite, the race detector over the
# concurrent packages (race), the sweep's -j determinism (sweep-same),
# the two fuzzers for a few seconds each (fuzz-smoke) and the host
# suite repeated at 1, 2 and 4 Ps (flake), and the host's stage timing
# in fake time (fake-time).

GO ?= go

# The micro-benchmarks `make bench-check` compares with BASE. The
# simulator hot path: DRAM access, the stream pump, the fluid pool's
# closure entry point (the one the repository benchmark probes),
# calibration and a Fig13 sweep.
BENCH_COUNT ?= 5
HOT_BENCHES  = BenchmarkDRAMAccess|BenchmarkStreamPump|BenchmarkPoolStart|BenchmarkCalibrate|BenchmarkCalibrateWarm|BenchmarkCalibrateAdjacentCold|BenchmarkFig13Sweep

# Host-runtime dispatch benchmarks. The 8/32 variants time the
# unsharded (Domains=1) dispatch path; 64 runs 2 memory domains and
# 128/256 run 4, the sharded-gate scaling past the old single-gate
# plateau; the Domains64x* trio holds workers at 64 and varies only the
# domain count. BenchmarkHostRunEmptyBodies is the 8-worker Run with
# empty task bodies: the stage path alone, which no placement of task
# bodies in the binary can move.
HOST_BENCHES = BenchmarkHostRunEmptyBodies|BenchmarkHostRuntimeThroughput|BenchmarkHostRuntimeThroughput8|BenchmarkHostRuntimeThroughput32|BenchmarkHostRuntimeThroughput64|BenchmarkHostRuntimeThroughput128|BenchmarkHostRuntimeThroughput256|BenchmarkHostRuntimeThroughput512|BenchmarkHostRuntimeDomains64x1|BenchmarkHostRuntimeDomains64x2|BenchmarkHostRuntimeDomains64x4|BenchmarkMpmcRingContended|$(SERVE_BENCHES)

# Open-loop serving benchmarks: sustained Submit->Drain throughput at
# 64/128/256 workers (BenchmarkHostServe*), and the gate's one-slot
# claim and release on their own (BenchmarkGateAdmitPerJob).
SERVE_BENCHES = BenchmarkHostServe64|BenchmarkHostServe128|BenchmarkHostServe256|BenchmarkGateAdmitPerJob

# Event-queue benchmarks (EngineStep* in internal/sim), one per regime
# of the merged queue: a single pending event, 256 events a tick apart
# (a DRAM calibration: all wheel slots) and 8 events 50 us apart (a
# simsched run: all far heap).
SIM_BENCHES  = BenchmarkEngineStepWheel|BenchmarkEngineStepWheelDeep256|BenchmarkEngineStepSparse

# Policy-plugin benchmarks: the PolicyThrottler window boundary —
# per-class aggregation, stall harvest, Observe, decision publish —
# must stay allocation-free, or every W pairs the scheduler hot path
# pays a GC tax the legacy controllers never did.
CORE_BENCHES = BenchmarkPolicyObserve

# Contended-counter microbenchmarks: a single shared atomic counter vs
# per-writer slots packed on shared lines vs the cache-line-padded
# stripes the host runtime's hot-path counters use (internal/stats
# PaddedInt64). The spread is the false-sharing cost the striping pass
# removed; on a single-CPU runner the three coincide.
CONTEND_BENCHES = BenchmarkContendedCounterGlobal|BenchmarkContendedCounterSharedLines|BenchmarkContendedCounterStriped

# Benchmarks `make bench-check` holds allocation-free, whatever BASE
# reads: the simulator's zero-allocation hot paths must never regrow
# an alloc, and the gate's one-slot claim and release, the
# policy-plugin window boundary, the event-queue step, in each regime,
# and the fluid pool's start/fire cycle stay allocation-free too.
ZERO_ALLOC   = BenchmarkEngineStepWheel,BenchmarkEngineStepWheelDeep256,BenchmarkEngineStepSparse,BenchmarkDRAMAccess,BenchmarkStreamPump,BenchmarkPoolStart,BenchmarkGateAdmitPerJob,BenchmarkPolicyObserve

# BASE is the commit `make bench-check`, `make ab` and `make loc`
# measure the working tree against.
BASE ?= HEAD

.PHONY: check lint fmt vet layout build bench-build test race sweep-same fuzz-smoke flake fake-time bench-check ab loc

check: lint build bench-build test race sweep-same fuzz-smoke flake fake-time

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
# lazily spawned workers, per-domain queues with admission on take, the
# wake rule, the park/spin loop over the waiter lot, the stage runner
# with retry, the controller feed, the stall watchdog) under two
# disciplines — Run's seeded phases (batch.go), Serve's MPMC ingress
# rings, shedding and Drain (serve.go) — so every suite races the same
# take, park, release and wake code: the chaos and
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

# fake-time runs host/faketime_test.go: Run and Serve in a synctest
# bubble, with task bodies that sleep, must report their stage times and
# latencies exactly (the test file sets asynctimerchan=0, which the
# bubble needs while go.mod says go 1.22).
fake-time:
	GOEXPERIMENT=synctest $(GO) test -run FakeTime ./host

# bench-check is the micro-benchmark gate (cmd/benchab -bench): BASE
# and a copy of the working tree go into a temporary directory, each
# builds the test binaries of the five benchmark packages, and both run
# every benchmark above BENCH_COUNT times, -test.count 1 each, one
# benchmark at a time with its base and change back to back,
# alternating which side goes first. A benchmark fails when its
# change/base median ns/op is over 1.15 and the medians differ by more
# than the base's own quartile spread; a ZERO_ALLOC benchmark fails when
# it allocates in every pair. Both sides run in one session on one machine, so the
# verdict does not depend on the hour. Run nothing else meanwhile.
bench-check:
	$(GO) run ./cmd/benchab -base $(BASE) -pairs $(BENCH_COUNT) -zero-alloc '$(ZERO_ALLOC)' \
		-bench '^($(HOT_BENCHES)|$(HOST_BENCHES)|$(SIM_BENCHES)|$(CORE_BENCHES)|$(CONTEND_BENCHES))$$' \
		. ./internal/sim ./internal/core ./internal/stats ./host

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
