// Package simsched executes stream programs on the simulated machine
// under a throttling policy. It is the simulated analogue of the
// paper's application-layer runtime (§V): per-hardware-thread workers
// dequeue tasks from a work queue, a counter enforces the MTL
// constraint on concurrent memory tasks, phases are separated by
// barriers, and completed memory/compute pairs are reported to the
// policy, which may retarget the MTL at any time.
package simsched

import (
	"fmt"
	"sync/atomic"

	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
	"memthrottle/internal/stream"
	"memthrottle/internal/trace"
)

// MaxMemDomains bounds the per-domain parameter array in Config. The
// array (rather than a slice) keeps Config comparable, which the
// experiment layer relies on for memoisation keys.
const MaxMemDomains = 4

// Config describes one simulation run.
type Config struct {
	Machine machine.Config
	Mem     contend.Params
	// DomainMem holds the per-domain fluid parameters when
	// Machine.MemDomains > 1 (entry d models domain d's DIMM; entries
	// past the domain count are ignored and must stay zero). With a
	// single domain Mem alone is used. Pairs are homed round-robin
	// (pair index modulo the domain count), matching the host
	// runtime's default placement rule.
	DomainMem [MaxMemDomains]contend.Params
	// LLCBytes is the shared last-level cache capacity (paper: 8 MB).
	LLCBytes float64
	// ResidentOverheadBytes models the cache share permanently held
	// by instructions, runtime structures and the OS — the "#
	// instructions and data together" that tips 2 MB tasks over the
	// edge in Fig. 13(c) while 0.5/1 MB tasks still fit.
	ResidentOverheadBytes float64
	// MonitorOverhead is charged to the completing worker for every
	// pair the policy monitors (timer reads + bookkeeping).
	MonitorOverhead sim.Time
	// NoiseSigma injects log-normal task-duration jitter (system
	// noise); 0 disables it. Seed makes runs reproducible.
	NoiseSigma float64
	Seed       int64
	// RecordTrace captures a per-thread timeline in the result.
	RecordTrace bool
	// SimPar is accepted and ignored: every run is one engine.
	SimPar bool
}

// Default returns the paper's base configuration for the given fluid
// memory parameters: the i7-860 machine, 8 MB LLC, and a 2 µs
// monitoring cost per measured pair.
func Default(mem contend.Params) Config {
	return Config{
		Machine:               machine.I7860(),
		Mem:                   mem,
		LLCBytes:              8 << 20,
		ResidentOverheadBytes: 768 << 10,
		MonitorOverhead:       2 * sim.Microsecond,
		Seed:                  1,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if nd := c.Machine.Domains(); nd > 1 {
		if nd > MaxMemDomains {
			return fmt.Errorf("simsched: MemDomains = %d, want <= %d", nd, MaxMemDomains)
		}
		for d := 0; d < nd; d++ {
			if err := c.DomainMem[d].Validate(); err != nil {
				return fmt.Errorf("simsched: DomainMem[%d]: %w", d, err)
			}
		}
	}
	if c.LLCBytes <= 0 {
		return fmt.Errorf("simsched: LLCBytes = %g, want > 0", c.LLCBytes)
	}
	if c.ResidentOverheadBytes < 0 || c.ResidentOverheadBytes >= c.LLCBytes {
		return fmt.Errorf("simsched: ResidentOverheadBytes = %g, want within [0, LLCBytes)", c.ResidentOverheadBytes)
	}
	if c.MonitorOverhead < 0 {
		return fmt.Errorf("simsched: MonitorOverhead = %v, want >= 0", c.MonitorOverhead)
	}
	if c.NoiseSigma < 0 {
		return fmt.Errorf("simsched: NoiseSigma = %g, want >= 0", c.NoiseSigma)
	}
	return nil
}

// Result summarises one run.
type Result struct {
	Policy     string
	TotalTime  sim.Time
	PhaseTimes []sim.Time

	// Idle/busy accounting across all hardware threads: busy covers
	// task execution and monitoring overhead.
	BusyTime sim.Time
	IdleTime sim.Time

	PairsCompleted int
	MonitoredPairs int
	OverheadTime   sim.Time

	FinalMTL     int
	MTLDecisions []int // D-MTL history for adaptive policies
	PhaseMTL     []int // MTL in force as each phase completed
	TotalProbes  int   // candidate-MTL windows measured by the policy

	// MeanTm[k] is the observed mean memory-task duration among tasks
	// started while MTL=k was in force; MeanTc the overall mean
	// compute duration.
	MeanTm map[int]sim.Time
	MeanTc sim.Time

	// CacheMissFraction is the mean LLC miss fraction seen by compute
	// tasks (nonzero only when live footprints overflow, Fig. 13c);
	// LLCPeak is the maximum concurrently resident footprint.
	CacheMissFraction float64
	LLCPeak           float64

	Timeline *trace.Timeline // nil unless Config.RecordTrace
}

// runner holds the live state of one closed-loop simulation: the rig
// plus the admission kernel's own queues, slab and accounting.
type runner struct {
	rig
	prog *stream.Program
	th   core.Throttler

	phase          int
	phaseRemaining int
	phaseStart     sim.Time
	pairs          []pairRun // the current phase's slab, indexed by pair
	doms           []domainReady
	readyCompute   idQueue

	// Completion callbacks bound once per run; the finishing *taskRun
	// travels as the argument, so starting a task allocates nothing.
	memDoneFn, computePartFn, taskDoneFn func(any)

	// onPick, when set, sees every dispatch decision (ts nil: w stays
	// idle) before it takes effect. Only the differential test against
	// the reference admission scan sets it.
	onPick func(w *worker, ts *taskRun, mtl int)

	res      Result
	tmByK    map[int]*stats.Welford
	tcAgg    stats.Welford
	missAgg  stats.Welford
	timeline *trace.Timeline
}

// taskRun is the runtime state of one task.
type taskRun struct {
	task    *stream.Task
	pair    *pairRun
	w       *worker // hardware thread running the task
	start   sim.Time
	bytes   float64 // memory tasks: noised bytes in flight
	mtlAt   int     // memory tasks: MTL in force when the task started
	pending int     // compute tasks: parts (core work, miss traffic) still running
}

// pairRun is one pair's slot in the phase slab: the measured durations
// its tasks share plus the three tasks' own state at fixed positions,
// so a whole phase is a single allocation and a task reaches its
// successor through ts.pair without a lookup.
type pairRun struct {
	dom          int     // home memory domain
	gatherBytes  float64 // noised effective bytes
	scatterBytes float64
	computeWork  sim.Time // noised solo duration
	gatherDur    sim.Time

	gather, compute, scatter taskRun
}

// domainReady is one memory domain's ready memory tasks. Pairs are
// homed round-robin, so the domain's gathers are the pairs d, d+D,
// d+2D, ... of the phase slab, already in task-ID order: a cursor
// suffices. Scatters become ready as computes finish, in any order,
// and wait in an ID-sorted queue no longer than the pairs in flight.
type domainReady struct {
	nextGather int // slab index of the next unstarted gather
	scatters   idQueue
	active     int // in-flight memory tasks
}

// idQueue is a ready queue kept sorted by task ID and consumed only at
// its head. Popping advances a cursor instead of reslicing, so the
// backing array keeps its capacity for the whole run.
type idQueue struct {
	q    []*taskRun
	head int
}

// front returns the lowest-ID task, or nil when the queue is empty.
func (q *idQueue) front() *taskRun {
	if q.head == len(q.q) {
		return nil
	}
	return q.q[q.head]
}

func (q *idQueue) reset() {
	clear(q.q)
	q.q, q.head = q.q[:0], 0
}

func (q *idQueue) pop() {
	q.q[q.head] = nil
	q.head++
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
}

// insert places ts at its task-ID position.
func (q *idQueue) insert(ts *taskRun) {
	if q.head > 0 && len(q.q) == cap(q.q) {
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	i := len(q.q)
	q.q = append(q.q, nil)
	for i > q.head && q.q[i-1].task.ID > ts.task.ID {
		q.q[i] = q.q[i-1]
		i--
	}
	q.q[i] = ts
}

// runCount counts Run invocations process-wide. The experiment
// layer's caches are judged by how many simulations they avoid, so
// the count is exported for regression tests and CLI reporting.
var runCount atomic.Uint64

// RunCount reports the number of Run invocations so far in this
// process.
func RunCount() uint64 { return runCount.Load() }

// Run executes prog under the given throttler and returns the result.
// The throttler must be freshly constructed per run (it accumulates
// state). Each call has a private engine, machine, memory pool and RNG
// for its duration, so independent runs may execute concurrently.
// Panics on invalid configuration or program: both are
// programmer-supplied.
func Run(prog *stream.Program, cfg Config, th core.Throttler) Result {
	runCount.Add(1)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := prog.Validate(); err != nil {
		panic(err)
	}
	r := acquire(cfg)
	res := r.run(prog, cfg, th)
	release(r)
	return res
}

// newRunner builds a runner and its rig for cfg's machine. What a run
// reads of either, run sets first.
func newRunner(cfg Config) *runner {
	r := &runner{rig: newRig(cfg), tmByK: make(map[int]*stats.Welford)}
	r.memDoneFn, r.computePartFn, r.taskDoneFn = r.finishMemory, r.computePart, r.taskDone
	r.doms = make([]domainReady, len(r.pools))
	return r
}

// run resets the rig and the kernel's own state — like rig.reset, the
// only way into a run, for new and recycled runners alike — executes
// prog to completion and assembles the result.
func (r *runner) run(prog *stream.Program, cfg Config, th core.Throttler) Result {
	r.reset(cfg)
	r.prog, r.th = prog, th
	for d := range r.doms {
		r.doms[d].active = 0
		r.doms[d].scatters.reset()
	}
	r.readyCompute.reset()
	r.res = Result{}
	clear(r.tmByK)
	r.tcAgg, r.missAgg = stats.Welford{}, stats.Welford{}
	r.timeline = nil
	if cfg.RecordTrace {
		r.timeline = trace.New(len(r.workers))
	}

	r.enterPhase(0)
	r.eng.Run()

	if r.phase < len(prog.Phases) {
		panic(fmt.Sprintf("simsched: deadlock — run ended in phase %d/%d with %d tasks left",
			r.phase, len(prog.Phases), r.phaseRemaining))
	}

	res := r.res
	res.Policy = th.Name()
	res.TotalTime = r.eng.Now()
	res.IdleTime = res.TotalTime*sim.Time(len(r.workers)) - res.BusyTime
	res.FinalMTL = th.MTL()
	rep := core.ReportOf(th)
	res.MTLDecisions, res.TotalProbes = rep.Decisions, rep.Probes
	res.MeanTm = make(map[int]sim.Time, len(r.tmByK))
	for k, w := range r.tmByK {
		res.MeanTm[k] = sim.Time(w.Mean())
	}
	res.MeanTc = sim.Time(r.tcAgg.Mean())
	res.CacheMissFraction = r.missAgg.Mean()
	res.LLCPeak = r.llc.Peak()
	res.Timeline = r.timeline
	// A runner waiting for reuse keeps nothing of its last caller's.
	r.prog, r.th, r.res, r.timeline = nil, nil, Result{}, nil
	return res
}

// enterPhase queues every task pair of phase p and dispatches workers.
// The phase's run state is one slab: pair i's measurements and its
// gather, compute and scatter tasks live in r.pairs[i].
func (r *runner) enterPhase(p int) {
	r.phase = p
	if p >= len(r.prog.Phases) {
		return
	}
	ph := &r.prog.Phases[p]
	r.phaseStart = r.eng.Now()
	r.phaseRemaining = 0
	// The slab is reused from phase to phase and from run to run: every
	// task of the phase before has completed, so nothing points into
	// it, and each slot is overwritten whole.
	if n := len(ph.Pairs); n <= cap(r.pairs) {
		r.pairs = r.pairs[:n]
	} else {
		r.pairs = make([]pairRun, n)
	}
	nd := len(r.doms)
	for i := range ph.Pairs {
		pr := &ph.Pairs[i]
		ps := &r.pairs[i]
		// One noise draw per task, in task-ID order.
		gatherBytes := pr.Gather.Bytes * r.noise.Factor()
		computeWork := pr.Compute.Work * sim.Time(r.noise.Factor())
		*ps = pairRun{
			// Home domain: pair index modulo the domain count, the same
			// round-robin placement the host runtime defaults to.
			dom:         i % nd,
			gatherBytes: gatherBytes,
			computeWork: computeWork,
			gather:      taskRun{task: pr.Gather, pair: ps},
			compute:     taskRun{task: pr.Compute, pair: ps},
		}
		r.phaseRemaining += 2
		if pr.Scatter != nil {
			ps.scatterBytes = pr.Scatter.Bytes * r.noise.Factor()
			ps.scatter = taskRun{task: pr.Scatter, pair: ps}
			r.phaseRemaining++
		}
	}
	for d := range r.doms {
		r.doms[d].nextGather = d
	}
	r.dispatchAll()
}

// dispatchAll gives idle workers work, lowest index first, until one
// finds none. What dispatch picks does not depend on the worker, and a
// dispatch that finds nothing changes nothing, so every idle worker
// after it would find nothing too.
func (r *runner) dispatchAll() {
	for i := range r.workers {
		if w := &r.workers[i]; w.idle {
			r.dispatch(w)
			if w.idle {
				return
			}
		}
	}
}

// frontMem returns domain d's lowest-ID ready memory task — its next
// gather or its oldest ready scatter — or nil when it has none.
func (r *runner) frontMem(d int) *taskRun {
	dr := &r.doms[d]
	ts := dr.scatters.front()
	if dr.nextGather < len(r.pairs) {
		if g := &r.pairs[dr.nextGather].gather; ts == nil || g.task.ID < ts.task.ID {
			return g
		}
	}
	return ts
}

// dispatch assigns the next runnable task to w, or leaves it idle.
// The worker takes the oldest runnable task in task-ID (program)
// order, where a memory task is runnable only while its home domain
// holds MTL tokens (the limit applies per domain, as each DIMM of the
// paper's 2-DIMM platform carries its own MTL). This yields the
// per-thread gather-compute alternation of Fig. 4 and keeps the number
// of in-flight pairs — and hence the live LLC footprint — bounded.
// Each domain keeps its ready memory tasks in ID order, so the oldest
// admissible one overall is the lowest-ID front among the domains with
// tokens: a dispatch costs O(domains), however long the phase.
func (r *runner) dispatch(w *worker) {
	mtl := r.th.MTL()
	var pick *taskRun
	for d := range r.doms {
		if r.doms[d].active >= mtl {
			continue
		}
		if ts := r.frontMem(d); ts != nil && (pick == nil || ts.task.ID < pick.task.ID) {
			pick = ts
		}
	}
	comp := r.readyCompute.front()
	if comp != nil && (pick == nil || comp.task.ID < pick.task.ID) {
		pick = comp
	}
	if r.onPick != nil {
		r.onPick(w, pick, mtl)
	}
	switch {
	case pick == nil:
		w.idle = true
		return
	case pick == comp:
		r.readyCompute.pop()
		r.startCompute(w, pick)
	default:
		dr := &r.doms[pick.pair.dom]
		if pick.task.Kind == stream.Gather {
			dr.nextGather += len(r.doms)
		} else {
			dr.scatters.pop()
		}
		r.startMemory(w, pick, mtl)
	}
	w.idle = false
}

// startMemory runs a gather or scatter task on w under the MTL in
// force.
func (r *runner) startMemory(w *worker, ts *taskRun, mtl int) {
	ts.w = w
	ts.start = r.eng.Now()
	ts.mtlAt = mtl
	dom := ts.pair.dom
	r.doms[dom].active++
	ts.bytes = ts.pair.gatherBytes
	if ts.task.Kind == stream.Scatter {
		ts.bytes = ts.pair.scatterBytes
	}
	r.llc.Reserve(ts.bytes)
	r.pools[dom].StartFunc(ts.bytes, 1, r.memDoneFn, ts)
}

// finishMemory is the completion callback of a memory task.
func (r *runner) finishMemory(arg any) {
	ts := arg.(*taskRun)
	dur := r.account(ts, r.eng.Now())
	r.doms[ts.pair.dom].active--

	switch ts.task.Kind {
	case stream.Gather:
		// The gathered footprint stays resident until its compute
		// task has consumed it; record Tm for the pair.
		ts.pair.gatherDur = dur
		r.welfordTm(ts.mtlAt).Add(float64(dur))
		r.readyCompute.insert(&ts.pair.compute)
	case stream.Scatter:
		r.llc.Release(ts.bytes)
	}
	r.taskDone(ts)
}

// startCompute runs a compute task on w; it completes when every part
// of it has.
func (r *runner) startCompute(w *worker, ts *taskRun) {
	ts.w = w
	ts.start = r.eng.Now()
	var missFrac float64
	ts.pending, missFrac = r.rig.startCompute(w, ts.pair.dom, ts.pair.gatherBytes, ts.pair.computeWork, r.computePartFn, ts)
	r.missAgg.Add(missFrac)
}

// computePart is the completion callback of one part of a compute
// task; the last part to finish completes the task.
func (r *runner) computePart(arg any) {
	ts := arg.(*taskRun)
	ts.pending--
	if ts.pending == 0 {
		r.finishCompute(ts)
	}
}

func (r *runner) finishCompute(ts *taskRun) {
	now := r.eng.Now()
	dur := r.account(ts, now)
	r.tcAgg.Add(float64(dur))
	r.llc.Release(ts.pair.gatherBytes)
	r.res.PairsCompleted++

	if sc := &ts.pair.scatter; sc.task != nil {
		r.doms[ts.pair.dom].scatters.insert(sc)
	}

	monitored := r.th.Monitoring()
	r.th.OnPair(core.PairSample{Tm: ts.pair.gatherDur, Tc: dur, Now: now})

	if monitored && r.cfg.MonitorOverhead > 0 {
		r.res.MonitoredPairs++
		r.res.OverheadTime += r.cfg.MonitorOverhead
		r.res.BusyTime += r.cfg.MonitorOverhead
		if r.timeline != nil {
			r.timeline.Add(trace.Segment{
				Thread: ts.w.id, Start: now, End: now + r.cfg.MonitorOverhead,
				Label: "mon", Memory: false,
			})
		}
		r.eng.AfterFunc(r.cfg.MonitorOverhead, r.taskDoneFn, ts)
		return
	}
	if monitored {
		r.res.MonitoredPairs++
	}
	r.taskDone(ts)
}

// account records busy time and the trace segment for a task that
// finished at now, and returns its duration. The segment ends at now
// itself: start+(now-start) can round one ulp past it, into a task
// admitted at the same instant.
func (r *runner) account(ts *taskRun, now sim.Time) sim.Time {
	dur := now - ts.start
	r.res.BusyTime += dur
	if r.timeline != nil {
		r.timeline.Add(trace.Segment{
			Thread: ts.w.id,
			Start:  ts.start,
			End:    now,
			Label:  fmt.Sprintf("%s%d.%d", ts.task.Kind, ts.task.Phase, ts.task.Pair),
			Memory: ts.task.Kind.IsMemory(),
		})
	}
	return dur
}

// taskDone frees the worker that ran the finished task (arg is its
// *taskRun; the monitoring-overhead continuation arrives here through
// the engine), advances the phase bookkeeping and re-dispatches. It
// must be the last thing its caller does with the task: when the phase
// ends here, enterPhase reuses the slab the task lives in.
func (r *runner) taskDone(arg any) {
	arg.(*taskRun).w.idle = true
	r.phaseRemaining--
	if r.phaseRemaining == 0 {
		// Every task of the phase has completed, so nothing is queued.
		r.res.PhaseTimes = append(r.res.PhaseTimes, r.eng.Now()-r.phaseStart)
		r.res.PhaseMTL = append(r.res.PhaseMTL, r.th.MTL())
		r.enterPhase(r.phase + 1)
		return
	}
	r.dispatchAll()
}

func (r *runner) welfordTm(k int) *stats.Welford {
	wf := r.tmByK[k]
	if wf == nil {
		wf = &stats.Welford{}
		r.tmByK[k] = wf
	}
	return wf
}
