package host

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
	"memthrottle/internal/stats"
)

// This file is the open-loop queue discipline: it turns the Runtime
// from a batch scheduler (Run: execute a fixed slice of pairs to
// completion) into a long-running server on the same worker runtime
// (runtime.go):
// Serve opens a streaming ingress, Submit enqueues one pair without
// blocking the dispatch path, and Drain stops intake and waits for the
// tail. The MTL admission gate doubles as the server's admission
// controller — a job leaves the pending queue only when a worker takes
// it under a slot of its home domain's gate — so the paper's invariant
// (never more than MTL memory tasks in flight per domain) holds for
// streamed work exactly as it does for batches.
//
// The serving hot path is allocation-free after Serve: records live in
// a preallocated block pool (a lock-free MPMC ring, ring.go) and wait
// in their domain's bounded ingress ring (domainState.pend). Admission
// is Run's: the worker about to run a job claims one gate slot as it
// takes it (pool.takeMem), and Submit wakes a sleeper only when the
// job's gate has a free slot; behind a full gate the job waits for the
// slot holder's next take.
//
// Per-job latencies are recorded into per-worker histogram shards
// (internal/stats.LatencyHist, zero-alloc) and merged deterministically
// after the workers exit, so Drain's percentiles are race-free without
// any hot-path locking.

// Shed selects what Submit does when the serving queue cannot take the
// job (pending ring full, or the block pool exhausted).
type Shed int

const (
	// ShedReject makes Submit return ErrQueueFull; the caller owns the
	// retry policy. The default.
	ShedReject Shed = iota
	// ShedDrop makes Submit accept and discard the job, counted in
	// ServeStats.Dropped — the open-loop load-shedding posture.
	ShedDrop
	// ShedBlock makes Submit wait for space, turning the open loop into
	// a closed one under overload. Blocked submitters are released with
	// ErrDraining when the server drains.
	ShedBlock
)

// String names the shedding mode.
func (s Shed) String() string {
	switch s {
	case ShedReject:
		return "reject"
	case ShedDrop:
		return "drop"
	case ShedBlock:
		return "block"
	default:
		return fmt.Sprintf("Shed(%d)", int(s))
	}
}

var (
	// ErrQueueFull is returned by Submit under ShedReject when the
	// pending queue (or the job-block pool) is exhausted.
	ErrQueueFull = errors.New("host: serving queue full")
	// ErrDraining is returned by Submit once Drain has begun.
	ErrDraining = errors.New("host: server draining")
	// ErrBlacklisted is returned by Submit when the pair's traffic class
	// is currently demoted by a class-aware controller: the job is shed
	// at ingress, regardless of the shedding mode, until the blacklist
	// releases the class.
	ErrBlacklisted = errors.New("host: traffic class blacklisted")
)

// ServeConfig tunes one Serve session.
type ServeConfig struct {
	// Queue bounds each domain's pending queue (rounded up to a power
	// of two): the jobs submitted to the domain that no worker has
	// taken yet. A job leaves it when a worker takes its gather under a
	// gate slot, so a job waiting behind a full gate counts against it.
	// Default: 1024.
	Queue int
	// Shed selects the overflow behaviour. Default: ShedReject.
	Shed Shed
}

// withDefaults fills zero fields.
func (c ServeConfig) withDefaults() ServeConfig {
	if c.Queue == 0 {
		c.Queue = 1024
	}
	return c
}

// validate reports a configuration error.
func (c ServeConfig) validate() error {
	if c.Queue < 1 {
		return fmt.Errorf("host: ServeConfig.Queue = %d, want >= 1", c.Queue)
	}
	switch c.Shed {
	case ShedReject, ShedDrop, ShedBlock:
	default:
		return fmt.Errorf("host: unknown shedding mode %v", c.Shed)
	}
	return nil
}

// ServeStats summarises one Serve session at Drain.
type ServeStats struct {
	Submitted int64 // jobs accepted into the pending queue
	Completed int64 // jobs whose final task finished successfully
	Failed    int64 // jobs abandoned after exhausting retries
	Dropped   int64 // jobs discarded by ShedDrop
	Rejected  int64 // Submit calls refused by ShedReject
	Retries   int64 // task re-executions performed
	Recovered int64 // tasks that succeeded after at least one retry

	// AdmittedJobs counts gate admissions: each memory-class task (a
	// gather, or a scatter) a worker took under a slot of its gate.
	// AdmitBatches always equals it — every take admits one record —
	// and stays because bench/ reads the ratio of the two.
	AdmitBatches int64
	AdmittedJobs int64

	// Blacklisted counts Submit calls refused because the pair's class
	// was demoted at the time — the ingress half of containment.
	Blacklisted int64

	// Stalls counts tasks flagged by the stall watchdog; Stalled holds
	// the seq of each flagged job in detection order. Degraded reports
	// whether the adaptive controller fell back to the conventional
	// schedule during the session.
	Stalls   int64
	Stalled  []int64
	Degraded bool

	Elapsed        time.Duration
	Goodput        float64 // completed jobs per second of Elapsed
	FinalMTL       int
	MaxConcurrentM int // peak concurrent memory tasks, all domains

	// QueueLatency spans Submit to the worker's take of the gather —
	// the wait for a gate slot and the wake of a worker included;
	// ServiceLatency spans that take, the reading that starts the
	// gather, to the reading that ends the job's last stage: every
	// stage and the hand-offs between them. Both are merged from
	// per-worker shards after the workers exit, so a drained server's
	// percentiles are exact over all completed jobs.
	QueueLatency   stats.LatencyHist
	ServiceLatency stats.LatencyHist

	// WakeLatency is the session's λ as it drained: the running mean
	// of token sent → blocked worker running again over the session's
	// waiter lot, the measured wake latency the wake rule and the
	// pre-park spin are stated in. Measured, not set; zero until a
	// worker blocked. Drain reads it after every worker exited, so
	// every blocking park of the session has folded its sample.
	WakeLatency time.Duration
}

// Server is a live Serve session.
type Server struct {
	// The shared counters come first, so that no field added or
	// removed ahead of them can move them (TestLayoutServer). A Server
	// starts 8 bytes into a 64-byte line (the allocator's header), so
	// the lead pad puts seq through rejected, the Submit and completion
	// words, on one line, and admitted, which every take bumps, with
	// the cold blacklisted on the next.
	_        [56]byte
	seq      atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	submitted, completed, failed atomic.Int64
	dropped, rejected, admitted  atomic.Int64
	blacklisted                  atomic.Int64
	_                            [48]byte

	pool // the shared worker runtime; the rest is the serving discipline's
	sc   ServeConfig

	free *mpmcRing

	// ownLot parks this session's idle workers (the runtime's own lot
	// is the batch phases'); pool.lot points at it.
	ownLot lot

	// blockMu/blockCond park ShedBlock submitters; blockWaiters keeps
	// the signal off the completion hot path when nobody waits.
	blockMu      sync.Mutex
	blockCond    *sync.Cond
	blockWaiters atomic.Int64

	statsOnce sync.Once
	finalQ    stats.LatencyHist
	finalS    stats.LatencyHist
}

// Serve opens a serving session on the runtime. The session owns the
// runtime until Drain completes: Run calls fail while serving, and a
// runtime serves at most one session at a time. The controller is the
// runtime's own (it persists across sessions exactly as it persists
// across Run calls).
func (r *Runtime) Serve(sc ServeConfig) (*Server, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if r.closed.Load() {
		return nil, errors.New("host: runtime closed")
	}
	if !r.serving.CompareAndSwap(false, true) {
		return nil, errors.New("host: runtime already serving")
	}
	queueCap := ceilPow2(sc.Queue)
	s := &Server{sc: sc}
	s.setup(r, s, &s.ownLot, "job", nil)
	s.blockCond = sync.NewCond(&s.blockMu)
	for d := range s.doms {
		s.doms[d].pend = newMPMCRing(queueCap)
	}
	// The block pool covers the pending rings plus two blocks a worker
	// (and two spare) for the jobs out of them: in a worker's hands,
	// set aside class-capped, or waiting for their scatter's slot.
	// Running out reads as a full queue.
	total := len(s.doms)*queueCap + 2*(r.cfg.Workers+1)
	blocks := make([]pairRec, total)
	s.free = newMPMCRing(ceilPow2(total))
	for i := range blocks {
		s.free.push(&blocks[i])
	}
	s.armWatchdog()
	return s, nil
}

// Submit enqueues one pair for execution. It never blocks on dispatch
// work — the slow paths are the configured shedding mode (ShedBlock
// waits for space) and validation. Safe for any number of concurrent
// callers.
func (s *Server) Submit(p Pair) error {
	if s.draining.Load() {
		return ErrDraining
	}
	// The batch path's rules: exactly one form per slot, memory and
	// compute required.
	var rec pairRec
	switch fault, slot := rec.fill(p); {
	case fault == slotBoth && slot == "Scatter":
		return fmt.Errorf("host: submit: both Scatter and ScatterErr set")
	case fault == slotBoth || fault == slotMissing:
		return fmt.Errorf("host: submit: exactly one of %s/%sErr must be set", slot, slot)
	case fault == classRange:
		return fmt.Errorf("host: submit: class = %d, want within [0, %d)", p.Class, core.MaxClasses)
	}
	// Ingress containment: a demoted class is refused before it costs a
	// block or a queue slot, whatever the shedding mode — exactly the
	// arrival-shedding half of blacklist demotion in the simulator.
	if s.rt.lim != nil && s.rt.lim.Blacklisted(p.Class) {
		s.blacklisted.Add(1)
		return ErrBlacklisted
	}

	// inflight rises before the draining re-check: Drain observes
	// either a zero count (this submit backs out) or our token (the
	// drain waits for this job). No job is ever stranded behind a
	// closed drain.
	s.inflight.Add(1)
	if s.draining.Load() {
		s.undoInflight()
		return ErrDraining
	}
	rec.seq = s.seq.Add(1) - 1
	dom := s.rt.homeOf(rec.seq)
	rec.dom = int32(dom)
	if s.enqueue(&rec) {
		s.submitted.Add(1)
		s.wake(dom)
		return nil
	}
	switch s.sc.Shed {
	case ShedDrop:
		s.undoInflight()
		s.dropped.Add(1)
		return nil
	case ShedBlock:
		return s.submitBlocking(&rec)
	default: // ShedReject
		s.undoInflight()
		s.rejected.Add(1)
		return ErrQueueFull
	}
}

// enqueue copies one filled record into a pool block and moves it into
// its domain's pending ring, reporting false when the queue (or the
// block pool) is full. The ready count rises before the push, as every
// publisher's does, so no worker's scan proves absence while the job
// is in flight.
func (s *Server) enqueue(rec *pairRec) bool {
	j := s.free.pop()
	if j == nil {
		return false
	}
	*j = *rec
	j.enqNs = nowNs()
	ds := &s.doms[rec.dom]
	ds.readyMem.Add(1)
	if ds.pend.push(j) {
		return true
	}
	ds.readyMem.Add(-1)
	s.recycle(j)
	return false
}

// wake follows an accepted Submit: one sleeper, or a fresh worker when
// none is parked, iff domain d's gate has a free slot. Behind a full
// gate nobody is woken: every slot holder takes again after its task
// returns (pool.work), and the job is in the queue that take scans.
func (s *Server) wake(d int) {
	if s.rt.gates[d].room() > 0 && !s.lot.unparkOne() {
		s.spawnWorker()
	}
}

// recycle clears a block and returns it to the pool.
func (s *Server) recycle(j *pairRec) {
	*j = pairRec{}
	for !s.free.push(j) {
		runtime.Gosched()
	}
}

// submitBlocking is the ShedBlock slow path: wait until the job fits
// or the server drains.
func (s *Server) submitBlocking(rec *pairRec) error {
	s.blockWaiters.Add(1)
	defer s.blockWaiters.Add(-1)
	s.blockMu.Lock()
	for {
		if s.draining.Load() {
			s.blockMu.Unlock()
			s.undoInflight()
			return ErrDraining
		}
		if s.enqueue(rec) {
			s.blockMu.Unlock()
			s.submitted.Add(1)
			s.wake(int(rec.dom))
			return nil
		}
		s.blockCond.Wait()
	}
}

// wakeSubmitters releases ShedBlock submitters after space opened.
func (s *Server) wakeSubmitters() {
	if s.blockWaiters.Load() > 0 {
		s.blockMu.Lock()
		s.blockCond.Broadcast()
		s.blockMu.Unlock()
	}
}

// undoInflight retires an inflight token without a job behind it.
func (s *Server) undoInflight() {
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.shutdown()
	}
}

// equip gives a serving worker its latency shards.
func (s *Server) equip(w *worker) { w.lat = new(latShard) }

// stopped reports whether the session is fully drained.
func (s *Server) stopped() bool {
	return s.draining.Load() && s.inflight.Load() == 0
}

// take is the shared scan (pool.scan), plus the serving accounting: one
// admission per record taken, and for a gather its queue latency, which
// ends at the reading that starts the gather — recorded here, before
// the task runs, so the histogram update stays out of the
// memory-to-compute hand-off — and a wake for blocked submitters, since
// the take opened space in the pending ring.
func (s *Server) take(w *worker) (*pairRec, int64) {
	j, t := s.scan(w)
	if j == nil {
		return nil, 0
	}
	s.admitted.Add(1)
	if j.stage == stageMem {
		j.admitNs = t
		w.lat.queue.Record(time.Duration(t - j.enqNs))
		s.wakeSubmitters()
	}
	return j, t
}

// finish moves a job on after one of its stages ran. Gather: the compute
// runs next on the same worker, off the queues, and the wake rule
// (offer) decides whether a sleeper takes the freed slot. Compute: feed
// the controller, then either queue the scatter in its home domain's
// scatter list (and offer) or retire the job. Scatter, or a failure at
// any stage: retire it. A completed job's service latency ends at
// endNs, the reading that ended its last stage.
func (s *Server) finish(w *worker, j *pairRec, dur time.Duration, endNs int64, err error) *pairRec {
	if err != nil {
		s.failed.Add(1)
		s.retire(j)
		return nil
	}
	switch j.stage {
	case stageMem:
		j.stage = stageComp
		s.offer(w, stageComp, 1)
		return j
	case stageComp:
		if s.adaptive {
			s.feedController(j, dur, endNs)
		}
		if j.has(stageScat) {
			s.queueScat(w, j)
			return nil
		}
	}
	s.completed.Add(1)
	w.lat.service.Record(time.Duration(endNs - j.admitNs))
	s.retire(j)
	return nil
}

// retire ends one counted job: recycle the block, release blocked
// submitters, and close the drain when this was the last inflight job
// of a draining session.
func (s *Server) retire(j *pairRec) {
	s.recycle(j)
	s.wakeSubmitters()
	if s.inflight.Add(-1) == 0 && s.draining.Load() {
		s.shutdown()
	}
}

// Drain stops intake (Submit returns ErrDraining; blocked submitters
// are released) and waits for every accepted job to finish. On success
// it returns the session's statistics with exact merged latency
// percentiles and releases the runtime for Run or a new Serve. If ctx
// expires first, Drain returns counter-only statistics plus ctx's
// error; the session keeps draining in the background and Drain may be
// called again to finish waiting.
func (s *Server) Drain(ctx context.Context) (ServeStats, error) {
	if s.draining.CompareAndSwap(false, true) {
		s.wakeSubmitters()
		if s.inflight.Load() == 0 {
			s.shutdown()
		}
	}
	select {
	case <-s.done:
	case <-ctx.Done():
		return s.snapshotStats(), ctx.Err()
	}
	// A spawn that raced the drain has joined wg by now, and none starts
	// after it: spawnWorker checks done under spawnMu.
	s.spawnMu.Lock()
	s.spawnMu.Unlock()
	s.wg.Wait() // workers exited: histogram shards are quiescent
	s.statsOnce.Do(func() {
		for i := range s.workers {
			if w := s.workers[i].Load(); w != nil {
				s.finalQ.Merge(&w.lat.queue)
				s.finalS.Merge(&w.lat.service)
			}
		}
		s.rt.serving.Store(false)
	})
	st := s.snapshotStats()
	st.QueueLatency = s.finalQ
	st.ServiceLatency = s.finalS
	return st, nil
}

// snapshotStats builds counter statistics (no histogram merge — safe
// while workers are still running).
func (s *Server) snapshotStats() ServeStats {
	st := ServeStats{
		Submitted:      s.submitted.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Dropped:        s.dropped.Load(),
		Rejected:       s.rejected.Load(),
		Retries:        s.retries.Load(),
		Recovered:      s.recovered.Load(),
		AdmittedJobs:   s.admitted.Load(),
		Blacklisted:    s.blacklisted.Load(),
		Elapsed:        time.Duration(nowNs() - s.startNs),
		WakeLatency:    time.Duration(s.ownLot.wakeNs.Load()),
		FinalMTL:       s.rt.MTL(),
		MaxConcurrentM: s.rt.peakConcurrentM(),
	}
	s.wdMu.Lock()
	st.Stalls = s.stalls
	st.Stalled = append([]int64(nil), s.stalled...)
	st.Degraded = s.degraded
	s.wdMu.Unlock()
	st.AdmitBatches = st.AdmittedJobs
	if sec := st.Elapsed.Seconds(); sec > 0 {
		st.Goodput = float64(st.Completed) / sec
	}
	return st
}
