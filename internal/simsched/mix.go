package simsched

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// StreamShapes is the per-job shape contract MixRun consumes,
// satisfied structurally by internal/workload's Steady, Flood and
// PhaseFlip generators (declared here, like Arrivals, to avoid an
// import cycle).
type StreamShapes interface {
	// NextShape returns the next job's gather footprint (bytes) and
	// solo compute duration (seconds).
	NextShape() (gather, compute float64)
}

// Stream is one traffic class of a mixed open-loop run: its own
// arrival process, job-shape generator, and class tag the throttler
// sees on every sample.
type Stream struct {
	// Class tags the stream's jobs (0..core.MaxClasses-1). The victim
	// is class 0 by convention.
	Class int
	// Arrivals generates inter-arrival gaps (seconds of virtual time).
	Arrivals Arrivals
	// Shapes generates per-job gather/compute shapes.
	Shapes StreamShapes
	// Jobs is the number of arrivals this stream generates.
	Jobs int
}

// MixSpec describes one adversarial serving run: several class-tagged
// streams share the bounded queue, the machine, and the throttler.
type MixSpec struct {
	Streams []Stream
	// Queue bounds the shared pending queue; arrivals finding it full
	// are shed. Queue <= 0 leaves it unbounded.
	Queue int
}

// Validate reports a spec error, if any.
func (s MixSpec) Validate() error {
	if len(s.Streams) == 0 {
		return fmt.Errorf("simsched: MixSpec without streams")
	}
	for i, st := range s.Streams {
		if st.Class < 0 || st.Class >= core.MaxClasses {
			return fmt.Errorf("simsched: stream %d class = %d, want 0..%d", i, st.Class, core.MaxClasses-1)
		}
		if st.Arrivals == nil {
			return fmt.Errorf("simsched: stream %d without an arrival process", i)
		}
		if st.Shapes == nil {
			return fmt.Errorf("simsched: stream %d without a shape generator", i)
		}
		if st.Jobs < 1 {
			return fmt.Errorf("simsched: stream %d Jobs = %d, want >= 1", i, st.Jobs)
		}
	}
	return nil
}

// ClassOutcome summarises one traffic class of a mixed run.
type ClassOutcome struct {
	Arrived   int
	Completed int
	Dropped   int

	// Queue is admission-wait latency (arrival to MTL-gate admission),
	// Service admission-to-completion latency, Sojourn end-to-end
	// arrival-to-completion latency — the victim's Sojourn p99 is the
	// robustness experiment's headline number.
	Queue   stats.LatencyHist
	Service stats.LatencyHist
	Sojourn stats.LatencyHist
}

// MixResult summarises one adversarial serving run.
type MixResult struct {
	Policy string

	// Makespan ends at the last completion; Goodput is total
	// completions per second of makespan.
	Makespan sim.Time
	Goodput  float64

	// ByClass is indexed by class id, length max class + 1.
	ByClass []ClassOutcome

	PeakQueue     int // peak pending-queue depth
	PeakActiveMem int // peak concurrent memory tasks, all domains
	FinalMTL      int
	MTLDecisions  []int
	// ContainedAt is the virtual-time instant the throttler first
	// demoted (blacklisted) any class, 0 if it never did — the
	// time-to-contain metric.
	ContainedAt sim.Time
}

// mixTask is one in-flight job of the open-loop simulation.
type mixTask struct {
	class   int
	dom     int
	bytes   float64  // noised gather footprint
	work    sim.Time // noised solo compute duration
	arrived sim.Time
	admit   sim.Time
	gatherT sim.Time // measured gather duration
	w       *worker  // hardware thread carrying the job
	pending int      // compute parts (core work, miss traffic) still running
}

// mixStream is one stream's arrival state.
type mixStream struct {
	Stream
	generated int
}

// mixer is the live state of one open-loop run: the rig it borrows plus
// the bounded queue and the admission gates.
type mixer struct {
	*rig
	queueCap int
	th       core.Throttler
	lim      core.ClassLimiter // th's class-limit view, nil if class-blind

	queue       []*mixTask // pending, arrival order (head at index head)
	head        int
	activeMem   []int // per domain
	activeAll   int   // all domains
	activeClass [core.MaxClasses]int
	inflight    int // admitted jobs not yet completed
	seq         int // arrivals past the blacklist, shed or not

	// Completion callbacks bound once per run; the stream, the job or,
	// for freeFn, the worker travels as the argument.
	arriveFn, gatherDoneFn, computePartFn, freeFn func(any)

	res MixResult
}

// MixRun executes one open-loop serving simulation, the only driver of
// its kind (ServeRun is the one-stream case): jobs (gather-compute
// pairs) arrive on class-tagged streams, wait in one bounded queue, are
// admitted under the throttler's MTL — the gate doubling as the
// admission controller — and execute on the hardware threads. A
// class-aware throttler is fed per-class samples and has its class
// limits and blacklist honoured at admission. Virtual
// time plus seeded arrivals and noise make every run bit-reproducible.
// The throttler must be freshly constructed per run; independent runs
// may execute concurrently. Panics on invalid configuration or spec.
func MixRun(cfg Config, spec MixSpec, th core.Throttler) MixResult {
	runCount.Add(1)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	r := acquire(cfg)
	res := runMix(&r.rig, cfg, spec, th)
	release(r)
	return res
}

// runMix resets g and runs spec on it to completion.
func runMix(g *rig, cfg Config, spec MixSpec, th core.Throttler) MixResult {
	g.reset(cfg)
	m := &mixer{rig: g, queueCap: spec.Queue, th: th, activeMem: make([]int, len(g.pools))}
	m.arriveFn, m.gatherDoneFn, m.computePartFn, m.freeFn = m.arrive, m.finishGather, m.computePart, m.free
	m.lim, _ = th.(core.ClassLimiter)
	maxClass := 0
	for _, st := range spec.Streams {
		maxClass = max(maxClass, st.Class)
	}
	m.res.ByClass = make([]ClassOutcome, maxClass+1)

	// Each stream's first arrival primes the event loop; every later one
	// is scheduled by its predecessor, so the engine drains exactly when
	// the last job has completed.
	streams := make([]mixStream, len(spec.Streams))
	for i, st := range spec.Streams {
		streams[i].Stream = st
		m.eng.AfterFunc(sim.Time(st.Arrivals.Next()), m.arriveFn, &streams[i])
	}
	m.eng.Run()

	if m.inflight != 0 || m.pending() != 0 {
		panic(fmt.Sprintf("simsched: open-loop deadlock — %d in flight, %d queued at drain",
			m.inflight, m.pending()))
	}
	m.res.Policy = th.Name()
	m.res.FinalMTL = th.MTL()
	m.res.MTLDecisions = core.ReportOf(th).Decisions
	completed := 0
	for _, c := range m.res.ByClass {
		completed += c.Completed
	}
	if m.res.Makespan > 0 {
		m.res.Goodput = float64(completed) / float64(m.res.Makespan)
	}
	return m.res
}

// pending reports the current queue depth.
func (m *mixer) pending() int { return len(m.queue) - m.head }

// arrive admits or sheds one arrival of a stream and schedules the
// stream's next. Blacklisted classes are refused at ingress — the
// serve-admission half of demotion; anything already queued or in
// flight still drains under the class limit. A job's home domain is
// its sequence number among the arrivals not so refused, modulo the
// domain count, taken before the queue-full check: host.Server.Submit's
// placement rule, where a shed job uses up its turn and a blacklisted
// one does not.
func (m *mixer) arrive(arg any) {
	st := arg.(*mixStream)
	now := m.eng.Now()
	oc := &m.res.ByClass[st.Class]
	oc.Arrived++
	blacklisted := m.lim != nil && m.lim.Blacklisted(st.Class)
	dom := m.seq % len(m.pools)
	if !blacklisted {
		m.seq++
	}
	if blacklisted || (m.queueCap > 0 && m.pending() >= m.queueCap) {
		oc.Dropped++
	} else {
		g, c := st.Shapes.NextShape()
		// One noise draw per task, as the closed-loop scheduler noises
		// pairs.
		m.queue = append(m.queue, &mixTask{
			class:   st.Class,
			dom:     dom,
			bytes:   g * m.noise.Factor(),
			work:    sim.Time(c * m.noise.Factor()),
			arrived: now,
		})
		if d := m.pending(); d > m.res.PeakQueue {
			m.res.PeakQueue = d
		}
		m.dispatchAll()
	}
	st.generated++
	if st.generated < st.Jobs {
		m.eng.AfterFunc(sim.Time(st.Arrivals.Next()), m.arriveFn, st)
	}
}

// dispatchAll offers work to idle workers until one finds none, as the
// closed-loop kernel's dispatchAll does and for the same reason: the
// job dispatch admits does not depend on the worker.
func (m *mixer) dispatchAll() {
	for i := range m.workers {
		if w := &m.workers[i]; w.idle {
			m.dispatch(w)
			if w.idle {
				return
			}
		}
	}
}

// tokenFree reports whether some domain runs fewer than mtl memory
// tasks.
func (m *mixer) tokenFree(mtl int) bool {
	for _, a := range m.activeMem {
		if a < mtl {
			return true
		}
	}
	return false
}

// classFull reports whether class c is at its class limit. A
// blacklisted class reports an effective limit of 1 through ClassLimit
// — demotion to fully serialized execution.
func (m *mixer) classFull(c int) bool {
	if m.lim == nil {
		return false
	}
	cl := m.lim.ClassLimit(c)
	return cl > 0 && m.activeClass[c] >= cl
}

// dispatch admits the oldest pending job that clears both its home
// domain's MTL gate — checked at dequeue, exactly as the host serving
// path admits against its per-domain gates — and its class's limit.
// The worker carries the job end to end — gather under the admission
// slot, then compute — so a busy worker maps one-to-one onto an
// in-flight request. While every domain's gate is full no job can
// clear it, so the queue is scanned only when some domain holds a
// token.
func (m *mixer) dispatch(w *worker) {
	mtl := m.th.MTL()
	idx := m.head
	if !m.tokenFree(mtl) {
		idx = len(m.queue)
	}
	for ; idx < len(m.queue); idx++ {
		if t := m.queue[idx]; m.activeMem[t.dom] < mtl && !m.classFull(t.class) {
			break
		}
	}
	if idx == len(m.queue) {
		w.idle = true
		return
	}
	t := m.queue[idx]
	// The jobs t overtakes move up one slot; the head slot is consumed.
	copy(m.queue[m.head+1:idx+1], m.queue[m.head:idx])
	m.queue[m.head] = nil
	m.head++
	if m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	}
	w.idle = false
	t.w = w
	m.inflight++
	now := m.eng.Now()
	t.admit = now
	m.res.ByClass[t.class].Queue.RecordSeconds(float64(now - t.arrived))
	m.activeMem[t.dom]++
	m.activeClass[t.class]++
	m.activeAll++
	if m.activeAll > m.res.PeakActiveMem {
		m.res.PeakActiveMem = m.activeAll
	}
	m.llc.Reserve(t.bytes)
	m.pools[t.dom].StartFunc(t.bytes, 1, m.gatherDoneFn, t)
}

// finishGather releases the admission slots and starts the compute
// half on the worker's core.
func (m *mixer) finishGather(arg any) {
	t := arg.(*mixTask)
	t.gatherT = m.eng.Now() - t.admit
	m.activeMem[t.dom]--
	m.activeClass[t.class]--
	m.activeAll--
	// A freed slot may admit a queued job on any currently idle worker
	// — but this worker is still busy with t's compute.
	m.dispatchAll()
	t.pending, _ = m.startCompute(t.w, t.dom, t.bytes, t.work, m.computePartFn, t)
}

// computePart is the completion callback of one part of a job's
// compute half; the last part to finish completes the job.
func (m *mixer) computePart(arg any) {
	t := arg.(*mixTask)
	t.pending--
	if t.pending == 0 {
		m.finishCompute(t)
	}
}

// finishCompute completes the job: record latencies, feed the
// throttler its class-tagged sample, track containment, free the
// worker.
func (m *mixer) finishCompute(t *mixTask) {
	now := m.eng.Now()
	m.llc.Release(t.bytes)
	oc := &m.res.ByClass[t.class]
	oc.Completed++
	m.inflight--
	oc.Service.RecordSeconds(float64(now - t.admit))
	oc.Sojourn.RecordSeconds(float64(now - t.arrived))
	if now > m.res.Makespan {
		m.res.Makespan = now
	}
	m.th.OnPair(core.PairSample{Tm: t.gatherT, Tc: now - t.admit - t.gatherT, Now: now, Class: t.class})
	if m.res.ContainedAt == 0 && m.lim != nil {
		for c := range m.res.ByClass {
			if m.lim.Blacklisted(c) {
				m.res.ContainedAt = now
				break
			}
		}
	}

	if m.th.Monitoring() && m.cfg.MonitorOverhead > 0 {
		m.eng.AfterFunc(m.cfg.MonitorOverhead, m.freeFn, t.w)
		return
	}
	m.free(t.w)
}

// free returns the worker (arg) to the idle set and offers it work.
func (m *mixer) free(arg any) {
	w := arg.(*worker)
	w.idle = true
	m.dispatch(w)
}
