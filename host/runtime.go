package host

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
	"memthrottle/internal/stats"
)

// This file is the worker runtime Run and Serve share. Both run a
// gather's compute next on the gather's worker and hold a scatter in its
// home domain's list until a gate slot admits it; they differ only in
// how the rest is queued and admitted — Run seeds per-domain FIFOs with
// the phase's gathers and admits on take (batch.go), Serve moves
// records through MPMC rings and admits them in a pump that submitters
// and releasers run (serve.go); both claim one gate slot per admission
// — and each implements discipline. Everything around the queues lives
// here once: the per-pair record, the worker, the lazily grown pool,
// the park/spin loop, the stage runner with retry and panic recovery,
// the controller feed, and (watchdog.go) the stall scan. DESIGN.md §11
// says why both disciplines stay.

// The three stages of a pair, in execution order. Memory and scatter
// are memory-class: they run under a gate slot of the pair's home
// domain.
const (
	stageMem int32 = iota
	stageComp
	stageScat
)

var stageNames = [3]string{"memory", "compute", "scatter"}

// pairRec is one pair's lifecycle record: its task functions, where it
// is homed, which stage runs next and what the earlier stages measured.
// A record rests in exactly one queue at a time (or in a worker's
// hands), so the stage field and the measurements are handed from one
// stage's worker to the next by the queue's atomics. Run allocates one
// slab of records per phase; Serve recycles a preallocated pool through
// its free ring. The user's functions are stored as given — exactly one
// form per set slot — so no wrapper closure is allocated per task.
type pairRec struct {
	fn  [3]func()       // plain form, indexed by stage
	fnE [3]func() error // error-returning form

	seq   int64 // pair index within the Run, or Submit order within the session
	dom   int32 // home memory domain
	class int32 // traffic class
	stage int32 // the task that runs next

	tmNs    int64 // measured memory-task duration
	enqNs   int64 // Serve: Submit time, ns since the session started
	admitNs int64 // Serve: first gate admission, same clock
}

// has reports whether the record carries a task for stage.
func (j *pairRec) has(stage int32) bool {
	return j.fn[stage] != nil || j.fnE[stage] != nil
}

// pairFault is what fill found wrong with a Pair.
type pairFault int

const (
	pairOK      pairFault = iota
	slotBoth              // the named slot sets both forms
	slotMissing           // the named slot is required and sets neither
	classRange            // Class outside [0, core.MaxClasses)
)

// fill resolves p's task slots and class into j and reports the first
// fault, naming the slot for the two slot faults. It is the one
// validator behind Run, Submit and FaultInjector.Wrap; each caller
// words its own error.
func (j *pairRec) fill(p Pair) (fault pairFault, slot string) {
	slots := [3]struct {
		name    string
		plain   func()
		withErr func() error
	}{
		{"Memory", p.Memory, p.MemoryErr},
		{"Compute", p.Compute, p.ComputeErr},
		{"Scatter", p.Scatter, p.ScatterErr},
	}
	for k, s := range slots {
		switch {
		case s.plain != nil && s.withErr != nil:
			return slotBoth, s.name
		case s.plain == nil && s.withErr == nil && int32(k) != stageScat:
			return slotMissing, s.name
		}
		j.fn[k], j.fnE[k] = s.plain, s.withErr
	}
	if p.Class < 0 || p.Class >= core.MaxClasses {
		return classRange, ""
	}
	j.class = int32(p.Class)
	return pairOK, ""
}

// homeOf reports the home domain of the pair with the given index (Run:
// position in the slice; Serve: Submit order): Config.Domain's answer,
// range-checked, or index modulo Domains.
func (r *Runtime) homeOf(index int64) (int, error) {
	nd := r.cfg.Domains
	if r.cfg.Domain == nil {
		return int(index % int64(nd)), nil
	}
	d := r.cfg.Domain(int(index))
	if d < 0 || d >= nd {
		return 0, fmt.Errorf("host: pair %d homed at domain %d, want within [0, %d)", index, d, nd)
	}
	return d, nil
}

// recList is an unbounded mutex FIFO of records with an atomic count
// that keeps the empty case — the steady state — off the lock. Run
// seeds one list per domain with the phase's gathers in submission
// order; Run and Serve both hold a domain's scatter-stage records in
// another until a gate slot admits them, and Serve holds class-capped
// records in a third. Every user gives each kind of record its own
// list, so probing one never blocks another.
type recList struct {
	n    atomic.Int64
	mu   sync.Mutex
	recs []*pairRec
	head int
}

// seed installs the initial records. Single-threaded set-up, before any
// worker starts.
func (l *recList) seed(recs []*pairRec) {
	l.recs = recs
	l.n.Store(int64(len(recs)))
}

func (l *recList) put(j *pairRec) {
	l.mu.Lock()
	l.recs = append(l.recs, j)
	l.n.Add(1)
	l.mu.Unlock()
}

func (l *recList) take() *pairRec {
	if l.n.Load() == 0 {
		return nil
	}
	l.mu.Lock()
	var j *pairRec
	if l.head < len(l.recs) {
		j = l.recs[l.head]
		l.recs[l.head] = nil
		l.head++
		if l.head == len(l.recs) {
			l.recs = l.recs[:0]
			l.head = 0
		}
		l.n.Add(-1)
	}
	l.mu.Unlock()
	return j
}

// worker is one dispatch loop's private state: a parking slot, the spin
// calibration, the striped counter shard, and for Serve the latency
// histograms its discipline equips it with. Other goroutines touch only
// its parker (the lot's unparkers) until the end-of-run merge reads the
// counters, so it needs no padding against them.
type worker struct {
	slot int
	home int // home memory domain (slot % Domains)

	park   parker
	spinNs int64 // EWMA idle gap, drives the pre-park spin budget

	// scatQueued (Run): this worker queued a scatter and has taken none
	// since, so its next take tries the scatter lists first (takeMem).
	scatQueued bool

	// Striped per-worker counters, merged into Stats after the phase
	// (Serve counts them too and does not publish them yet).
	// Single-writer — only this worker adds — but atomic, because the
	// end-of-run merge may read while a worker wedged in user code past
	// an abort is still accounting its final park.
	sumTm  atomic.Int64 // summed memory-task ns
	nTm    atomic.Int64
	sumTc  atomic.Int64 // summed compute-task ns
	nTc    atomic.Int64
	parks  atomic.Int64 // blocking park events (home domain)
	idleNs atomic.Int64 // blocked-park time (home domain)

	lat *latShard // Serve: merged only after the worker exits
}

// latShard is one serving worker's latency histograms.
type latShard struct {
	queue, service stats.LatencyHist
}

// discipline is what a way of queueing runnable records gives the
// shared runtime. Every scheduling decision — search order, which
// events wake a sleeper — is behind these methods; nothing
// in this file chooses between records.
type discipline interface {
	// equip gives a freshly spawned worker the discipline's per-worker
	// state, before the worker is published.
	equip(w *worker)
	// take returns the next runnable record — a memory-class stage with
	// its gate and class slots already held — or nil when the worker
	// should park.
	take(w *worker) *pairRec
	// ready is the pre-park spin's poll: could take find something now?
	// Work queued behind a full gate does not count.
	ready() bool
	// stopped reports that workers must drain and exit.
	stopped() bool
	// released runs right after the stage runner returned j's gate and
	// class slots: the discipline's wake (or pump) for the freed slot.
	released(j *pairRec)
	// limitRose runs after the controller (or the watchdog) raised the
	// MTL: admit and wake what the new headroom allows.
	limitRose()
	// finish takes j back after its stage ran (err is its terminal
	// failure): publish the successor stage, retire the pair, or return
	// a record — j itself, advanced — to run next on the same worker
	// without a trip through the queues.
	finish(w *worker, j *pairRec, dur time.Duration, end time.Time, err error) *pairRec
}

// pool is the worker runtime under one Run phase or one Serve session.
type pool struct {
	rt   *Runtime
	q    discipline
	lot  *lot   // where idle workers park: the runtime's for Run, the session's for Serve
	noun string // what a record is called in task errors: "pair" or "job"

	// stop ends retry backoffs early. Run passes its context's Done;
	// Serve passes nil — a session has no cancellation, Drain waits
	// for the tail whatever it is doing.
	stop <-chan struct{}

	start    time.Time
	adaptive bool  // controller consumes samples (non-Fixed throttler)
	spinMax  int64 // concurrent pre-park spinner cap (0 disables)

	workers []atomic.Pointer[worker] // lazily spawned, published per slot
	spawned atomic.Int32             // worker slots claimed so far
	wg      sync.WaitGroup           // Serve waits on it before merging histograms

	// spawnMu orders every spawn's wg.Add before Drain's wg.Wait: a
	// submitter's pump can still be spawning after its own job retired
	// and the session drained.
	spawnMu sync.Mutex

	retries   atomic.Int64
	recovered atomic.Int64

	// done closes when the phase completes or aborts, or the session
	// has drained; it also stops the watchdog.
	done     chan struct{}
	doneOnce sync.Once

	// Stall-watchdog state (Config.StallTimeout > 0 only): per-worker
	// flight records plus the bookkeeping the watchdog goroutine and
	// the end-of-run statistics share.
	flight   []flightRec // nil when the watchdog is off
	wdMu     sync.Mutex
	stalls   int64
	stalled  []int64 // seq of each flagged record, in detection order
	degraded bool
	rearms   int64
}

// setup readies the pool in place and restarts the gates' high-water
// marks at their current occupancy (slots may still be held by an
// earlier phase's wedged tasks).
func (p *pool) setup(r *Runtime, q discipline, l *lot, noun string, stop <-chan struct{}) {
	p.rt, p.q, p.lot, p.noun, p.stop = r, q, l, noun, stop
	p.start = time.Now()
	_, fixed := r.th.(core.Fixed)
	p.adaptive = !fixed
	p.spinMax = spinnerCap()
	p.workers = make([]atomic.Pointer[worker], r.cfg.Workers)
	p.done = make(chan struct{})
	r.memPeak.Store(r.memActive.Load())
	for d := range r.gates {
		r.gates[d].resetPeak()
	}
}

// shutdown releases whoever waits on done and wakes every parked worker
// so it can observe the stop, exactly once.
func (p *pool) shutdown() {
	p.doneOnce.Do(func() {
		close(p.done)
		p.lot.unparkAll()
	})
}

// spawnWorker starts one more worker goroutine if the pool has not
// reached Config.Workers yet. Workers spawn on demand, Go-scheduler
// style: starting more than the admission limit can run would only park
// them, so the pool grows when a publisher cannot drain its own backlog,
// admitted work finds nobody parked, the MTL rises, or the watchdog
// flags a wedged task. Safe from any goroutine; spawnMu serialises slot
// claims (a full pool returns before taking it) and no worker starts
// once done has closed, while the atomic slot publication lets the
// end-of-run merge read concurrently with spawning. Workers are homed
// round-robin across the domains (slot % Domains), so the pool covers
// every domain as soon as it is Domains wide.
func (p *pool) spawnWorker() {
	if int(p.spawned.Load()) >= len(p.workers) {
		return
	}
	p.spawnMu.Lock()
	defer p.spawnMu.Unlock()
	n := p.spawned.Load()
	if int(n) >= len(p.workers) || p.q.stopped() {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	w := &worker{
		slot: int(n),
		home: int(n) % p.rt.cfg.Domains,
		park: parker{token: make(chan struct{}, 1)},
	}
	p.q.equip(w)
	p.workers[n].Store(w)
	p.spawned.Store(n + 1)
	p.wg.Add(1)
	go p.work(w)
}

// work is the worker-goroutine loop: take, park when there is nothing,
// run the stage, repeat until the discipline says stop. A stop is
// observed between tasks: a worker always finishes (or exhausts retries
// on) the task it is running, then drains.
func (p *pool) work(w *worker) {
	defer p.wg.Done()
	for !p.q.stopped() {
		j := p.q.take(w)
		if j == nil {
			if j = p.parkTillWork(w); j == nil {
				return
			}
		}
		for j != nil {
			j = p.runStage(w, j)
		}
	}
}

// parkTillWork idles the worker until work (or the stop) arrives:
// enqueue in the lot, re-scan (closing the lost-wakeup window — any
// record published after that scan sees this worker parked and wakes
// it), then spin for the adaptive budget before blocking on the park
// token (see spin.go). The spin runs while enqueued, so the targeted
// unpark protocol covers it unchanged; a token consumed mid-spin is
// exactly a wakeup and loops back to acquisition. Only the blocking
// park counts as a park, and its duration is accounted once per cycle
// to the worker's shard (home-domain idle time).
func (p *pool) parkTillWork(w *worker) *pairRec {
	l, q := p.lot, p.q
	for {
		l.enqueue(&w.park)
		if q.stopped() {
			l.cancel(&w.park)
			return nil
		}
		if j := q.take(w); j != nil {
			l.cancel(&w.park)
			return j
		}
		if budget := spinBudgetNs(w.spinNs, l.wakeNs.Load()); budget > 0 && l.beginSpin(p.spinMax) {
			t0 := time.Now()
			woken := false
			for i := 1; !woken && time.Since(t0).Nanoseconds() < budget; i++ {
				select {
				case <-w.park.token:
					woken = true
				default:
				}
				if woken || q.stopped() || q.ready() {
					break
				}
				if i%spinYieldEvery == 0 {
					runtime.Gosched()
				}
			}
			l.endSpin()
			gap := time.Since(t0).Nanoseconds()
			if !woken {
				if q.stopped() {
					l.cancel(&w.park)
					return nil
				}
				if j := q.take(w); j != nil {
					l.cancel(&w.park)
					w.spinNs = fold(w.spinNs, gap)
					return j
				}
				// Budget spent with nothing runnable: fall through to the
				// blocking park (still enqueued, so no wakeup was lost).
			} else {
				// Token consumed mid-spin — this was the wakeup.
				w.spinNs = fold(w.spinNs, gap)
				if q.stopped() {
					return nil
				}
				if j := q.take(w); j != nil {
					return j
				}
				continue
			}
		}
		w.parks.Add(1)
		t0 := time.Now()
		<-w.park.token
		l.noteWake(&w.park)
		gap := time.Since(t0).Nanoseconds()
		w.idleNs.Add(gap)
		w.spinNs = fold(w.spinNs, gap)
		if q.stopped() {
			return nil
		}
		if j := q.take(w); j != nil {
			return j
		}
	}
}

// runStage runs j's current stage and hands the outcome to the
// discipline. For a memory-class stage the worker arrives holding the
// home gate's slot and the class slot: the issue signal is emitted
// here, once per admission and attributed to this worker's shard (an
// admitted record is executed exactly once), and both slots go back as
// soon as the task returns, failed or not.
func (p *pool) runStage(w *worker, j *pairRec) *pairRec {
	r := p.rt
	stage := j.stage
	if stage != stageComp {
		r.noteIssue(w.slot, int(j.class))
	}
	dur, end, attempts, err := p.retry(w, j)
	if stage != stageComp {
		r.releaseSlot(int(j.dom))
		r.releaseClass(int(j.class))
		p.q.released(j)
	}
	if attempts > 1 {
		p.retries.Add(int64(attempts - 1))
		if err == nil {
			p.recovered.Add(1)
		}
	}
	if err == nil {
		switch stage {
		case stageMem:
			// The plain write is published to the compute stage's worker
			// by whatever carries the record there.
			j.tmNs = int64(dur)
			w.sumTm.Add(int64(dur))
			w.nTm.Add(1)
		case stageComp:
			w.sumTc.Add(int64(dur))
			w.nTc.Add(1)
		}
	}
	return p.q.finish(w, j, dur, end, err)
}

// retry executes j's current stage under the retry policy, returning
// the successful attempt's duration and end time plus the number of
// attempts made. Each attempt re-registers the task with the stall
// watchdog; a backoff ends early, with the failure, when stop closes.
func (p *pool) retry(w *worker, j *pairRec) (dur time.Duration, end time.Time, attempts int, err error) {
	pol := p.rt.cfg.Retry
	if p.flight != nil {
		f := &p.flight[w.slot]
		defer f.clear()
	}
	var rng *rand.Rand
	for attempts = 1; ; attempts++ {
		if p.flight != nil {
			p.flight[w.slot].set(j.seq, int(j.class))
		}
		t0 := time.Now()
		err = p.invoke(j)
		if err == nil {
			// One monotonic clock read, not a second wall-clock one.
			dur = time.Since(t0)
			return dur, t0.Add(dur), attempts, nil
		}
		if !pol.enabled() || attempts >= pol.MaxAttempts {
			if attempts > 1 {
				err = fmt.Errorf("%w (after %d attempts)", err, attempts)
			}
			return 0, end, attempts, err
		}
		select {
		case <-p.stop:
			return 0, end, attempts, err
		default:
		}
		p.rt.noteRetry(w.slot, int(j.class))
		if rng == nil {
			// Allocated only on the retry slow path — the success path
			// stays allocation-free. Decorrelated per worker,
			// reproducible per seed.
			rng = rand.New(rand.NewSource(pol.Seed + int64(w.slot)*0x9E3779B9 + 1))
		}
		timer := time.NewTimer(pol.delay(attempts, rng))
		select {
		case <-timer.C:
		case <-p.stop:
			timer.Stop()
			return 0, end, attempts, err
		}
	}
}

// invoke runs j's current stage once, converting a returned error or a
// panic into a decorated error.
func (p *pool) invoke(j *pairRec) (err error) {
	stage := j.stage
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("host: %s %d %s task panicked: %v", p.noun, j.seq, stageNames[stage], rec)
		}
	}()
	if fnE := j.fnE[stage]; fnE != nil {
		if taskErr := fnE(); taskErr != nil {
			return fmt.Errorf("host: %s %d %s task failed: %w", p.noun, j.seq, stageNames[stage], taskErr)
		}
		return nil
	}
	j.fn[stage]()
	return nil
}

// feedController delivers one completed memory/compute pair's
// wall-clock timings under ctrlMu, mirrors the possibly-moved MTL into
// every domain gate, and — only when the limit rose — lets the
// discipline use the new headroom. Callers skip it for a Fixed
// throttler, which ignores samples and never moves.
func (p *pool) feedController(j *pairRec, tc time.Duration, end time.Time) {
	r := p.rt
	r.ctrlMu.Lock()
	r.th.OnPair(core.PairSample{
		Tm:    core.Time(time.Duration(j.tmNs).Seconds()),
		Tc:    core.Time(tc.Seconds()),
		Now:   core.Time(end.Sub(p.start).Seconds()),
		Class: int(j.class),
	})
	rose := r.mirrorLimit()
	r.ctrlMu.Unlock()
	if rose {
		p.q.limitRose()
	}
}
