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
// controller — a job leaves the pending queue only when its home
// domain's gate grants a memory slot — so the paper's invariant (never
// more than MTL memory tasks in flight per domain) holds for streamed
// work exactly as it does for batches.
//
// The serving hot path is allocation-free after Serve: records live in
// a preallocated block pool and move between lock-free MPMC rings
// (ring.go). Admission is *batched*: instead of one gate CAS and one
// wakeup per job, the pump claims a run of slots in a single
// tryAcquireN CAS and wakes the matching number of workers under a
// single lot lock (unparkN), amortising the gate and wakeup traffic
// that dominates per-job admission at high worker counts.
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
	// of two). Default: 1024.
	Queue int
	// Shed selects the overflow behaviour. Default: ShedReject.
	Shed Shed
	// AdmitBatch caps how many queued jobs one gate transition admits
	// (one CAS, one batched wakeup). 1 degenerates to per-job
	// admission — the configuration the BenchmarkHostServePerJob
	// baselines pin. Default: 32.
	AdmitBatch int
}

// withDefaults fills zero fields.
func (c ServeConfig) withDefaults() ServeConfig {
	if c.Queue == 0 {
		c.Queue = 1024
	}
	if c.AdmitBatch == 0 {
		c.AdmitBatch = 32
	}
	return c
}

// validate reports a configuration error.
func (c ServeConfig) validate() error {
	if c.Queue < 1 {
		return fmt.Errorf("host: ServeConfig.Queue = %d, want >= 1", c.Queue)
	}
	if c.AdmitBatch < 1 {
		return fmt.Errorf("host: ServeConfig.AdmitBatch = %d, want >= 1", c.AdmitBatch)
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

	// AdmitBatches counts gate transitions; AdmittedJobs the jobs they
	// admitted. Their ratio is the realised admission batch size — the
	// amortisation batched admission buys over per-job admission.
	AdmitBatches int64
	AdmittedJobs int64

	// Blacklisted counts Submit calls refused because the pair's class
	// was demoted at the time — the ingress half of containment.
	Blacklisted int64

	// Stalls counts tasks flagged by the stall watchdog; Stalled holds
	// the seq of each flagged job in detection order. Degraded reports
	// whether the Dynamic controller fell back to the conventional
	// schedule during the session, and Rearms how many times the
	// watchdog lifted the fallback after the stall storm passed
	// (Config.StallRecoverAfter).
	Stalls   int64
	Stalled  []int64
	Degraded bool
	Rearms   int64

	Elapsed        time.Duration
	Goodput        float64 // completed jobs per second of Elapsed
	FinalMTL       int
	MaxConcurrentM int // peak concurrent memory tasks, all domains

	// QueueLatency spans Submit to gate admission; ServiceLatency spans
	// admission to completion. Both are merged from per-worker shards
	// after the workers exit, so a drained server's percentiles are
	// exact over all completed jobs.
	QueueLatency   stats.LatencyHist
	ServiceLatency stats.LatencyHist
}

// servDomain is one memory domain's share of the server.
type servDomain struct {
	// pend is the bounded ingress: Submit pushes, the admission pump
	// pops. admitted carries gate-admitted jobs to workers; its
	// occupancy is bounded by the domain's gate limit, so it is sized
	// past Config.Workers and never legitimately fills. scat holds jobs
	// between compute and scatter, awaiting re-admission (and is the
	// unbounded fallback if admitted ever reports full mid-handoff).
	// held parks jobs whose traffic class is at its per-class limit;
	// they are retried ahead of fresh ingress on every later pump.
	pend     *mpmcRing
	admitted *mpmcRing
	scat     recList
	held     recList
}

// Server is a live Serve session.
type Server struct {
	pool // the shared worker runtime; the rest is the serving discipline's
	sc   ServeConfig

	doms []servDomain
	free *mpmcRing

	// ownLot parks this session's idle workers (the runtime's own lot
	// is the batch phases'); pool.lot points at it.
	ownLot lot

	seq      atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool

	submitted, completed, failed atomic.Int64
	dropped, rejected            atomic.Int64
	admitBatches, admittedJobs   atomic.Int64
	blacklisted                  atomic.Int64

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
	nd := r.cfg.Domains
	queueCap := ceilPow2(sc.Queue)
	admitCap := ceilPow2(2 * (r.cfg.Workers + 1))
	s := &Server{sc: sc, doms: make([]servDomain, nd)}
	s.setup(r, s, &s.ownLot, "job", nil)
	s.blockCond = sync.NewCond(&s.blockMu)
	for d := range s.doms {
		s.doms[d].pend = newMPMCRing(queueCap)
		s.doms[d].admitted = newMPMCRing(admitCap)
	}
	// The block pool covers every place a job can rest: the pending
	// rings, the admitted rings, the scatter lists plus the workers'
	// hands (both bounded by gate occupancy and the worker count).
	total := nd*queueCap + nd*admitCap + 2*(r.cfg.Workers+1)
	blocks := make([]pairRec, total)
	s.free = newMPMCRing(ceilPow2(total))
	for i := range blocks {
		s.free.push(&blocks[i])
	}
	s.armWatchdog(r.cfg.StallRecoverAfter)
	return s, nil
}

// nowNs is the session clock: nanoseconds since Serve.
func (s *Server) nowNs() int64 { return time.Since(s.start).Nanoseconds() }

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
	dom, err := s.rt.homeOf(rec.seq)
	if err != nil {
		s.undoInflight()
		return err
	}
	rec.dom = int32(dom)
	if s.enqueue(&rec) {
		s.submitted.Add(1)
		s.pump(dom)
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
// block pool) is full.
func (s *Server) enqueue(rec *pairRec) bool {
	j := s.free.pop()
	if j == nil {
		return false
	}
	*j = *rec
	j.enqNs = s.nowNs()
	if s.doms[rec.dom].pend.push(j) {
		return true
	}
	s.recycle(j)
	return false
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
			s.pump(int(rec.dom))
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

// pump is batched admission for domain d: claim a run of gate slots in
// one CAS, move that many queued jobs (scatter stage first — they
// finish jobs and free blocks) into the admitted ring, and wake the
// matching number of workers under one lot lock. Every slot-freeing
// event calls pump, so admission keeps pace without any dedicated
// admission thread. Concurrent pumps are safe: slots are claimed
// before jobs are taken, and unclaimable leftovers are handed back.
func (s *Server) pump(d int) {
	sd := &s.doms[d]
	batch := int64(s.sc.AdmitBatch)
	for {
		pending := sd.scat.n.Load() + sd.held.n.Load() + int64(sd.pend.length())
		if pending == 0 {
			return
		}
		want := min(pending, batch)
		n := s.rt.claimSlots(d, want)
		if n == 0 {
			return
		}
		var moved int64
		var deferred []*pairRec
		now := s.nowNs()
		for moved < n {
			j := sd.scat.take()
			if j == nil {
				j = sd.held.take()
			}
			if j == nil {
				j = sd.pend.pop()
			}
			if j == nil {
				break
			}
			if !s.rt.admitClass(int(j.class)) {
				// The job's class is at its per-class cap (a demoted
				// class runs fully serialized): defer it and keep
				// admitting other traffic. The slice allocates only in
				// class-capped sessions — the cooperative serving path
				// stays allocation-free.
				deferred = append(deferred, j)
				continue
			}
			if j.admitNs == 0 {
				j.admitNs = now
			}
			if !sd.admitted.push(j) {
				// Sized past the gate limit, the admitted ring only
				// reports full during a racing pop's handoff; recycle
				// through the unbounded scatter list and retry later.
				s.rt.releaseClass(int(j.class))
				sd.scat.put(j)
				break
			}
			// The issue signal is emitted by the worker that runs this
			// admission (runStage), not here: pump runs on arbitrary
			// submitter goroutines with no worker slot to attribute a
			// shard write to.
			moved++
		}
		for _, j := range deferred {
			sd.held.put(j)
		}
		if moved < n {
			s.rt.releaseSlots(d, n-moved)
		}
		if moved > 0 {
			s.admitBatches.Add(1)
			s.admittedJobs.Add(moved)
			s.wakeSubmitters() // space opened in pend
			woken := s.lot.unparkN(int(moved))
			for i := woken; i < int(moved); i++ {
				s.spawnWorker()
			}
		}
		if moved < want {
			return
		}
	}
}

// limitRose pumps every domain: an MTL raise opens headroom on all of
// them (a slot release affects only its own).
func (s *Server) limitRose() {
	for d := range s.doms {
		s.pump(d)
	}
}

// released re-pumps the domain whose slot just came back.
func (s *Server) released(j *pairRec) { s.pump(int(j.dom)) }

// equip gives a serving worker its latency shards.
func (s *Server) equip(w *worker) { w.lat = new(latShard) }

// stopped reports whether the session is fully drained.
func (s *Server) stopped() bool {
	return s.draining.Load() && s.inflight.Load() == 0
}

// popAdmitted scans the admitted rings home-first.
func (s *Server) popAdmitted(w *worker) *pairRec {
	nd := len(s.doms)
	for i := 0; i < nd; i++ {
		if j := s.doms[(w.home+i)%nd].admitted.pop(); j != nil {
			return j
		}
	}
	return nil
}

// take scans the admitted rings, pumping every domain once on a miss
// (the pump may admit work this very worker then takes). A gather's
// queue latency is recorded here, before the task runs, so the
// histogram update stays out of the memory-to-compute hand-off.
func (s *Server) take(w *worker) *pairRec {
	j := s.popAdmitted(w)
	if j == nil {
		s.limitRose()
		j = s.popAdmitted(w)
	}
	if j != nil && j.stage == stageMem {
		w.lat.queue.Record(time.Duration(j.admitNs - j.enqNs))
	}
	return j
}

// ready reports whether any admitted ring holds a job.
func (s *Server) ready() bool {
	for d := range s.doms {
		if s.doms[d].admitted.length() > 0 {
			return true
		}
	}
	return false
}

// finish moves a job on after one of its stages ran. Gather: the compute
// runs next on the same worker, off the queues. Compute: feed the
// controller, then either stage the scatter for re-admission or retire
// the job. Scatter, or a failure at any stage: retire it.
func (s *Server) finish(w *worker, j *pairRec, dur time.Duration, end time.Time, err error) *pairRec {
	if err != nil {
		s.retire(w, j, true)
		return nil
	}
	switch j.stage {
	case stageMem:
		j.stage = stageComp
		return j
	case stageComp:
		if s.adaptive {
			s.feedController(j, dur, end)
		}
		if j.has(stageScat) {
			d := int(j.dom)
			j.stage = stageScat
			s.doms[d].scat.put(j)
			s.pump(d)
			return nil
		}
	}
	s.retire(w, j, false)
	return nil
}

// retire ends one job: count it, record service latency, recycle the
// block, release blocked submitters, and close the drain when this was
// the last inflight job of a draining session.
func (s *Server) retire(w *worker, j *pairRec, failed bool) {
	if failed {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
		w.lat.service.Record(time.Duration(s.nowNs() - j.admitNs))
	}
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
		AdmitBatches:   s.admitBatches.Load(),
		AdmittedJobs:   s.admittedJobs.Load(),
		Blacklisted:    s.blacklisted.Load(),
		Elapsed:        time.Since(s.start),
		FinalMTL:       s.rt.MTL(),
		MaxConcurrentM: s.rt.peakConcurrentM(),
	}
	s.wdMu.Lock()
	st.Stalls = s.stalls
	st.Stalled = append([]int64(nil), s.stalled...)
	st.Degraded = s.degraded
	st.Rearms = s.rearms
	s.wdMu.Unlock()
	if sec := st.Elapsed.Seconds(); sec > 0 {
		st.Goodput = float64(st.Completed) / sec
	}
	return st
}
