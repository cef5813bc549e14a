// Package host is the real-machine implementation of the paper's
// run-time memory thread throttling (§V): a pool of worker goroutines
// executes user-supplied memory/compute task pairs from a work queue,
// an admission gate and a counter enforce the Memory Task Limit, and
// the same controllers that drive the simulator (internal/core)
// retarget the MTL from live task timings.
//
// The dispatch core is built for contended scale: MTL admission is one
// CAS on an atomic counter (gate.go) instead of a global lock, a
// gather's compute runs next on the worker that ran the gather with no
// trip through a queue, memory-class work waits in per-domain FIFOs
// instead of globally sorted slices, and workers that go idle park on
// a waiter list and receive targeted wakeups — one notify per dispatch
// opportunity, sent only when the next task outlasts the measured wake
// latency — rather than a Broadcast to every worker on every task
// completion.
//
// The machine can further be sharded into independent memory domains
// (Config.Domains), the host analogue of the paper's 2-DIMM platform
// (§V) where each DIMM's channel contends independently. Every pair
// has a home domain (pair index modulo Domains, the simulator's rule),
// admission runs against the home domain's own MTL gate, the queues
// are sharded per domain, and a worker tries its home domain first and
// then the others. With Domains = 1 (the default) all of this
// degenerates to the single global gate and queues of the unsharded
// runtime.
//
// The paper's semantics are preserved exactly: never more than MTL
// memory tasks in flight per domain (admission-time), compute after
// its pair's memory task, scatter after compute, and per-pair
// monitoring feeding the controller. Stats totals (Pairs,
// CompletedPairs, peak concurrency, decision history) remain
// deterministic for a given workload and policy; the task interleaving
// across workers is not.
//
// Unlike the paper's pthread runtime, goroutines cannot be pinned to
// cores portably — the Go scheduler multiplexes them — so wall-clock
// speedups depend on the host memory system and are not asserted by
// the test suite; the simulator is the quantitative substrate. The
// throttling semantics are identical and are tested here.
//
// The runtime is built to survive hostile workloads: RunContext
// honours context cancellation and per-Run deadlines (workers drain
// between tasks and partial Stats are returned), Config.Retry replays
// tasks that error or panic with jittered exponential backoff,
// Config.StallTimeout arms a watchdog that flags wedged tasks and
// degrades the Dynamic controller to the conventional schedule, and
// the FaultInjector in chaos.go exercises all of it under seeded
// fault injection.
package host

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
	"memthrottle/internal/stats"
)

// Pair is one gather-compute(-scatter) work unit. Memory should move
// the pair's footprint toward the cache (the paper uses prefetch
// loops); Compute consumes it; Scatter optionally writes results back.
// Memory and Scatter count against the MTL; Compute does not.
//
// Each task slot has a plain and an error-returning form; set exactly
// one of the two (the error form makes the task eligible for retry on
// a returned error as well as on a panic).
type Pair struct {
	Memory  func()
	Compute func()
	Scatter func() // optional

	// MemoryErr, ComputeErr and ScatterErr are the error-returning
	// variants of the slots above.
	MemoryErr  func() error
	ComputeErr func() error
	ScatterErr func() error

	// Class tags the pair's traffic class (0..core.MaxClasses-1; the
	// zero value is the default class). Class-aware controllers
	// (core.ClassLimiter, e.g. a blacklist policy behind
	// core.PolicyThrottler) see the tag on every sample and may cap the
	// class's concurrent memory tasks or demote it outright; class-blind
	// controllers ignore it entirely.
	Class int
}

// Policy selects the throttling controller.
type Policy int

const (
	// Conventional runs without throttling (MTL = workers).
	Conventional Policy = iota
	// Static enforces a fixed MTL (Config.MTL).
	Static
	// Dynamic runs the paper's mechanism: phase detection plus
	// binary-search MTL selection.
	Dynamic
	// OnlineExhaustive runs the naive baseline (§V).
	OnlineExhaustive
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Conventional:
		return "conventional"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case OnlineExhaustive:
		return "online-exhaustive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines (the paper spawns
	// one thread per core). Default: runtime.GOMAXPROCS(0).
	Workers int
	// Policy selects the controller. Default: Conventional (MTL = Workers).
	Policy Policy
	// Throttler plugs a custom controller, overriding Policy — the
	// host-side entry point of the policy-plugin architecture. Any
	// core.Throttler works; one that also implements core.ClassLimiter
	// (e.g. core.PolicyThrottler wrapping a blacklist policy) gets
	// per-class admission and ingress shedding, and one implementing
	// core.Observer receives the stall watchdog's signals. Any adaptive
	// controller plugged here (a core.Degrader: Dynamic, OnlineExhaustive,
	// a PolicyThrottler around any policy) is covered by the stall
	// fallback and reports through Health and Stats.Degraded exactly as
	// the built-in policies do. The runtime owns the controller's
	// mutations; it must not be shared across runtimes.
	Throttler core.Throttler
	// MTL is the fixed limit for the Static policy. With Domains > 1
	// it is the per-domain limit: each domain admits up to MTL
	// concurrent memory tasks homed there, exactly as each DIMM of the
	// paper's 2-DIMM platform carries its own MTL.
	MTL int
	// W is the monitor window for adaptive policies. Default: 16.
	W int
	// Domains shards the runtime into independent memory domains:
	// per-domain MTL gates and queues, each worker trying its home
	// domain first. A pair's home is its index — its position in the
	// slice given to Run, its Submit order within a Serve session —
	// modulo Domains. Default: 1 (the unsharded runtime).
	Domains int
	// Retry re-executes tasks that return an error or panic. The zero
	// value disables retry.
	Retry RetryPolicy
	// StallTimeout, when positive, arms a watchdog that flags tasks
	// running longer than this (Stats.Stalls) and, after three flags in
	// one run, degrades any adaptive controller, built in or plugged
	// through Throttler, to the conventional schedule for the life of
	// the controller. Default: off.
	StallTimeout time.Duration
}

// stallFallbackAfter is the number of stalled tasks in one run that
// degrades an adaptive controller.
const stallFallbackAfter = 3

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.W == 0 {
		c.W = 16
	}
	if c.Domains == 0 {
		c.Domains = 1
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// validate reports a configuration error.
func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("host: Workers = %d, want >= 1", c.Workers)
	}
	if c.W < 1 {
		return fmt.Errorf("host: W = %d, want >= 1", c.W)
	}
	if c.Domains < 1 {
		return fmt.Errorf("host: Domains = %d, want >= 1", c.Domains)
	}
	if c.Throttler != nil {
		if c.MTL != 0 {
			return fmt.Errorf("host: MTL set with a custom Throttler")
		}
		if c.Policy != Conventional {
			return fmt.Errorf("host: Policy %v set with a custom Throttler", c.Policy)
		}
	} else {
		if c.Policy == Static && (c.MTL < 1 || c.MTL > c.Workers) {
			return fmt.Errorf("host: static MTL = %d, want within [1, %d]", c.MTL, c.Workers)
		}
		if c.Policy != Static && c.MTL != 0 {
			return fmt.Errorf("host: MTL set with non-static policy %v", c.Policy)
		}
		if (c.Policy == Dynamic || c.Policy == OnlineExhaustive) && c.Workers < 2 {
			return fmt.Errorf("host: adaptive policies need >= 2 workers")
		}
	}
	if err := c.Retry.validate(); err != nil {
		return err
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("host: StallTimeout = %v, want >= 0", c.StallTimeout)
	}
	return nil
}

// DomainStats is the per-domain slice of one Run's dispatch activity,
// merged from the per-worker counter shards after the phase completes.
// Parks and Idle are attributed to the domain the parking worker is
// homed at.
//
// Parks counts only blocking parks — a worker whose adaptive pre-park
// spin (spin.go) found work or consumed its wakeup token mid-spin
// never blocked, so it contributes neither a park nor idle time. Idle
// is sampled once per park/unpark cycle (one timestamp pair around the
// token wait, added to the worker's own shard on wake), so it measures
// blocked time exclusively: spin time is running time, by design.
type DomainStats struct {
	Pairs      int           // pairs homed in this domain
	Parks      int           // blocking park events of workers homed here
	Idle       time.Duration // blocked-park time of workers homed here
	PeakActive int           // peak concurrent admitted memory tasks

	// Deprecated: always zero; Run no longer steals or spills work.
	Steals, RemoteSteals, Spills int
}

// Stats summarises one Run. On a cancelled or failed run the counters
// cover the completed prefix of the work.
type Stats struct {
	Elapsed        time.Duration
	Pairs          int // pairs submitted
	CompletedPairs int // pairs whose compute task finished
	FinalMTL       int
	MTLDecisions   []int
	MeanTm         time.Duration // mean memory-task duration
	// MeanTc is the mean compute-task duration. A compute starts at the
	// reading that ended its gather, so it also covers the hand-off
	// between the two: the gather's slot release and the wake rule.
	MeanTc         time.Duration
	MaxConcurrentM int // observed peak concurrent memory tasks, all domains

	Retries   int   // task re-executions performed
	Recovered int   // tasks that succeeded after at least one retry
	Stalls    int   // tasks flagged by the stall watchdog
	Stalled   []int // pair index of each flagged task, in detection order
	Degraded  bool  // Dynamic controller fell back to Conventional
	Cancelled bool  // run ended early on cancellation or deadline

	// Deprecated: always zero; Run no longer spills work.
	Spills int

	// WakeLatency is λ as the run ended: the runtime's running mean of
	// the time from a wakeup sent to the blocked worker running again,
	// one sample per blocking park (the events Domains[].Parks counts,
	// inside the time Domains[].Idle sums), kept across runs. When a
	// finished stage wakes a sleeper and how long an idle worker spins
	// are stated in it. Measured, not set; zero until a worker blocked.
	// The park that the run's end wakes often folds its sample after
	// the run has read λ; it then counts from the next run on.
	WakeLatency time.Duration

	// Domains holds the per-domain dispatch counters, one entry per
	// configured memory domain (a single entry for the default
	// unsharded runtime).
	Domains []DomainStats
}

// Runtime schedules pairs under MTL throttling.
type Runtime struct {
	// The dispatch path's shared words come first, each group on lines
	// of its own, so that no field added or removed ahead of them can
	// move them (TestLayoutRuntime).
	//
	// gates admit memory-class tasks with a CAS against the mirrored
	// MTL, one gate per memory domain; lot parks idle workers for
	// targeted wakeups. Both span Run calls so tasks wedged past an
	// abort keep their accounting.
	gates []gate
	_     [40]byte
	lot   lot

	// memActive/memPeak aggregate in-flight memory tasks across all
	// domain gates for Stats.MaxConcurrentM (each gate also keeps its
	// own per-domain peak).
	memActive atomic.Int64
	memPeak   atomic.Int64
	_         [48]byte

	cfg Config
	th  core.Throttler

	// lim and obs are th's class-aware views, nil for class-blind
	// controllers. Both are safe for concurrent reads by contract
	// (atomic fields behind core.PolicyThrottler).
	lim core.ClassLimiter
	obs core.Observer

	// classActive counts in-flight memory tasks per traffic class,
	// maintained only when lim is set (the class-blind hot path pays
	// nothing). It spans Run and Serve sessions like the gates do.
	// Each counter is padded onto its own cache line: the eight-wide
	// array used to fit one line, so every class's admission CAS
	// invalidated every other class's counter.
	classActive [core.MaxClasses]stats.PaddedInt64

	// ctrlMu serializes every controller interaction (OnPair, History,
	// Health, degradation) plus the phase's timing aggregates. It is
	// taken once per completed pair — never on the dispatch hot path.
	ctrlMu sync.Mutex

	closed atomic.Bool

	// serving marks a live Serve session (serve.go): Run and a second
	// Serve fail until the session drains.
	serving atomic.Bool
}

// New builds a runtime. The controller persists across Run calls, so
// phase history carries over exactly as in the paper's long-running
// applications.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{cfg: cfg}
	switch {
	case cfg.Throttler != nil:
		r.th = cfg.Throttler
	case cfg.Policy == Conventional:
		r.th = core.Fixed{K: cfg.Workers}
	case cfg.Policy == Static:
		r.th = core.Fixed{K: cfg.MTL}
	case cfg.Policy == Dynamic:
		r.th = core.NewDynamic(core.NewModel(cfg.Workers), cfg.W)
	case cfg.Policy == OnlineExhaustive:
		r.th = core.NewOnlineExhaustive(core.NewModel(cfg.Workers), cfg.W, 0.10)
	default:
		return nil, fmt.Errorf("host: unknown policy %v", cfg.Policy)
	}
	r.lim, _ = r.th.(core.ClassLimiter)
	r.obs, _ = r.th.(core.Observer)
	r.gates = make([]gate, cfg.Domains)
	r.mirrorLimit()
	return r, nil
}

// MTL reports the currently enforced per-domain limit. It is a single
// atomic load — samplers and watchdogs polling it never contend with
// workers.
func (r *Runtime) MTL() int {
	return int(r.gates[0].limit.Load())
}

// claimSlot acquires one memory-task slot in domain d, reporting
// false when the domain's gate is full. The domain gate's CAS is the
// real admission; the global counters only feed Stats.MaxConcurrentM,
// and with a single domain the gate's own peak already is the global
// one, so the unsharded hot path pays no extra atomics.
func (r *Runtime) claimSlot(d int) bool {
	if !r.gates[d].tryAcquire() {
		return false
	}
	if len(r.gates) > 1 {
		raise(&r.memPeak, r.memActive.Add(1))
	}
	return true
}

// releaseSlot returns one of domain d's slots. The cross-domain count
// drops before the gate reopens: the other order let a racing claim be
// counted on top of slots already given back, so MaxConcurrentM could
// read past MTL x Domains with the gates never over their limit.
func (r *Runtime) releaseSlot(d int) {
	if len(r.gates) > 1 {
		r.memActive.Add(-1)
	}
	r.gates[d].release()
}

// mirrorLimit copies the controller's MTL into every domain gate and
// reports whether it rose. Caller holds ctrlMu.
func (r *Runtime) mirrorLimit() bool {
	old := r.gates[0].limit.Load()
	limit := int64(r.th.MTL())
	for d := range r.gates {
		r.gates[d].limit.Store(limit)
	}
	return limit > old
}

// admitClass claims an in-flight slot for class c against the
// controller's per-class limit (blacklisted classes report 1 — fully
// serialized). Class-blind controllers admit unconditionally and pay
// nothing; class-aware ones always maintain the count so a limit that
// appears mid-run (a demotion) binds against accurate occupancy.
func (r *Runtime) admitClass(c int) bool {
	if r.lim == nil {
		return true
	}
	cl := r.lim.ClassLimit(c)
	if cl <= 0 {
		r.classActive[c].Add(1)
		return true
	}
	for {
		a := r.classActive[c].Load()
		if a >= int64(cl) {
			return false
		}
		if r.classActive[c].CompareAndSwap(a, a+1) {
			return true
		}
	}
}

// releaseClass returns class c's slot.
func (r *Runtime) releaseClass(c int) {
	if r.lim == nil {
		return
	}
	r.classActive[c].Add(-1)
}

// peakConcurrentM reports the run-wide peak concurrent memory tasks.
func (r *Runtime) peakConcurrentM() int {
	if len(r.gates) == 1 {
		return int(r.gates[0].peak.Load())
	}
	return int(r.memPeak.Load())
}

// Health reports the controller's measurement-guard summary (adaptive
// policies only; the zero Health otherwise).
func (r *Runtime) Health() core.Health {
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	return core.ReportOf(r.th).Health
}

// Close marks the runtime closed; subsequent Run calls fail.
func (r *Runtime) Close() {
	r.closed.Store(true)
}
