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

// This file is the worker runtime Run and Serve share, admission
// included. Both queue a domain's memory-class records in its
// domainState — Run seeds the gath lists with the phase's gathers,
// Serve pushes submissions into a bounded ingress ring (pend) — and in
// both the worker about to run a memory-class task claims its gate slot
// as it takes the record (takeMem). A gather's compute runs next on the
// gather's worker; a scatter waits in its home domain's scat list until
// a take admits it; one wake rule (offer) decides who else is woken.
// What differs is ingress, termination, failure handling and Serve's
// latency shards, which each side implements behind the discipline
// interface (batch.go, serve.go). Everything else lives here once: the per-pair
// record, the worker, the lazily grown pool, the per-domain queues and
// their take order, admission, the wake rule, the park/spin loop, the
// stage runner with retry and panic recovery, the controller feed, and
// (watchdog.go) the stall scan. DESIGN.md §11 says why both disciplines
// stay.

// The three stages of a pair, in execution order. Memory and scatter
// are memory-class: they run under a gate slot of the pair's home
// domain.
const (
	stageMem int32 = iota
	stageComp
	stageScat
)

var stageNames = [3]string{"memory", "compute", "scatter"}

// epoch anchors the runtime's one clock.
var epoch = time.Now()

// nowNs is the runtime's clock: monotonic nanoseconds since the package
// was initialised. time.Since against the epoch reads the monotonic
// clock alone, one vDSO call where a full timestamp takes two (wall and
// monotonic), and no wall-clock step can move it. Every timestamp of
// the task path, the lot's wake stamps, the park and spin timers and
// the watchdog's flight records are readings of it, and a stage
// boundary is read once: the reading that ends a stage also starts a
// compute that follows on the same worker (pool.work).
func nowNs() int64 { return int64(time.Since(epoch)) }

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
	enqNs   int64 // Serve: Submit time (nowNs)
	admitNs int64 // Serve: when a worker took the gather, the reading that starts it
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
// position in the slice; Serve: Submit order): index modulo Domains.
func (r *Runtime) homeOf(index int64) int {
	return int(index % int64(r.cfg.Domains))
}

// recList is an unbounded mutex FIFO of records with an atomic count
// that keeps the empty case — the steady state — off the lock. Each
// domain has two (domainState): gath, which Run seeds with the phase's
// gathers in submission order and where Serve sets aside class-capped
// gathers, and scat, where both hold scatter-stage records until a take
// admits them. Each kind of record has its own list, so probing one
// never blocks another.
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

	// scatQueued: this worker queued a scatter and has taken none since,
	// so its next take tries the scatter lists first (takeMem).
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

// discipline is what Run and Serve each give the shared runtime: the
// per-worker state, termination, and what happens to a record after a
// stage. The search order, admission and the wake rule are the pool's
// (takeMem, offer), the same under both.
type discipline interface {
	// equip gives a freshly spawned worker the discipline's per-worker
	// state, before the worker is published.
	equip(w *worker)
	// take returns the next runnable record — a memory-class stage with
	// its gate and class slots already held, found by pool.scan — and
	// the reading that starts its stage, or nil when the worker should
	// park.
	take(w *worker) (*pairRec, int64)
	// stopped reports that workers must drain and exit.
	stopped() bool
	// finish takes j back after its stage ran for dur and ended at the
	// reading endNs (err is its terminal failure): publish the successor
	// stage, retire the pair, or return a record — j itself, advanced —
	// to run next on the same worker without a trip through the queues.
	finish(w *worker, j *pairRec, dur time.Duration, endNs int64, err error) *pairRec
}

// domainState is one memory domain's queues of memory-class records,
// taken under the domain's gate (takeMem), and the advisory ready count
// over all of them. Parks and idle time are striped into the per-worker
// shards and merged into DomainStats only at end of run. readyMem keeps
// its own line: it is the one all-workers RMW word, and packing it
// beside the lists' mutexes made every publish invalidate the take fast
// path.
type domainState struct {
	// readyMem is an advisory upper bound on the records in scat, gath
	// and pend: publishers increment *before* putting, so a zero read
	// proves there is nothing to find and an idle worker skips the
	// domain's admission attempt (and, crucially, the wake-another-worker
	// path) with two loads. Consumers decrement after a successful take,
	// so the count may transiently overshoot — costing a spurious scan,
	// never a lost record.
	readyMem atomic.Int64
	_        [56]byte
	scat     recList   // scatters of finished computes, each waiting for a gate slot
	gath     recList   // Run: the phase's gathers, seeded in submission order; Serve: class-capped gathers set aside
	pend     *mpmcRing // Serve's bounded ingress, Submit order; nil under Run
	pairs    int       // Run: pairs homed here, set at seed time
	_        [16]byte  // stride to a line multiple: no cross-domain sharing
}

// pool is the worker runtime under one Run phase or one Serve session.
type pool struct {
	rt   *Runtime // its lot parks the idle workers of every phase and session
	q    discipline
	noun string // what a record is called in task errors: "pair" or "job"
	doms []domainState

	// stop ends retry backoffs early. Run passes its context's Done;
	// Serve passes nil — a session has no cancellation, Drain waits
	// for the tail whatever it is doing.
	stop <-chan struct{}

	startNs  int64 // nowNs at setup
	adaptive bool  // controller consumes samples (non-Fixed throttler)
	spinMax  int64 // concurrent pre-park spinner cap (0 disables)

	workers []atomic.Pointer[worker] // lazily spawned, published per slot
	spawned atomic.Int32             // worker slots claimed so far
	wg      sync.WaitGroup           // Serve waits on it before merging histograms

	// spawnMu orders every spawn's wg.Add before Drain's wg.Wait: a
	// submitter can still be spawning after its own job retired and the
	// session drained.
	spawnMu sync.Mutex

	retries   atomic.Int64
	recovered atomic.Int64

	// aborted marks a Run phase taken down by a terminal failure or its
	// context; a Serve session never aborts, Drain waits for its tail.
	aborted atomic.Bool

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
}

// setup readies the pool in place and restarts the gates' high-water
// marks at their current occupancy (slots may still be held by an
// earlier phase's wedged tasks).
func (p *pool) setup(r *Runtime, q discipline, noun string, stop <-chan struct{}) {
	p.rt, p.q, p.noun, p.stop = r, q, noun, stop
	p.startNs = nowNs()
	_, fixed := r.th.(core.Fixed)
	p.adaptive = !fixed
	p.spinMax = spinnerCap()
	p.workers = make([]atomic.Pointer[worker], r.cfg.Workers)
	p.doms = make([]domainState, r.cfg.Domains)
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
		p.rt.lot.unparkAll()
	})
}

// spawnWorker starts one more worker goroutine if the pool has not
// reached Config.Workers yet. Workers spawn on demand, Go-scheduler
// style: starting more than the admission limit can run would only park
// them, so the pool grows when a wake finds nobody parked (the wake
// rule, a Submit into a gate with room, a raced-away slot's nudge), the
// MTL rises, or the watchdog flags a wedged task. Safe from any goroutine; spawnMu serialises slot
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
// on) the task it is running, then drains. A taken record's stage starts
// at the reading take returns with it; a compute that follows its gather
// on this worker starts at the gather's end reading, so its time covers
// the hand-off between the two (the slot release and the wake rule).
func (p *pool) work(w *worker) {
	defer p.wg.Done()
	for !p.q.stopped() {
		j, t := p.q.take(w)
		if j == nil {
			if j, t = p.parkTillWork(w); j == nil {
				return
			}
		}
		for j != nil {
			j, t = p.runStage(w, j, t)
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
func (p *pool) parkTillWork(w *worker) (*pairRec, int64) {
	l, q := &p.rt.lot, p.q
	for {
		l.enqueue(&w.park)
		if q.stopped() {
			l.cancel(&w.park)
			return nil, 0
		}
		if j, t := q.take(w); j != nil {
			l.cancel(&w.park)
			return j, t
		}
		if budget := spinBudgetNs(w.spinNs, l.wakeNs.Load()); budget > 0 && l.beginSpin(p.spinMax) {
			t0 := nowNs()
			woken := false
			for i := 1; !woken && nowNs()-t0 < budget; i++ {
				select {
				case <-w.park.token:
					woken = true
				default:
				}
				if woken || q.stopped() || p.ready() {
					break
				}
				if i%spinYieldEvery == 0 {
					runtime.Gosched()
				}
			}
			l.endSpin()
			gap := nowNs() - t0
			if !woken {
				if q.stopped() {
					l.cancel(&w.park)
					return nil, 0
				}
				if j, t := q.take(w); j != nil {
					l.cancel(&w.park)
					w.spinNs = fold(w.spinNs, gap)
					return j, t
				}
				// Budget spent with nothing runnable: fall through to the
				// blocking park (still enqueued, so no wakeup was lost).
			} else {
				// Token consumed mid-spin — this was the wakeup.
				w.spinNs = fold(w.spinNs, gap)
				if q.stopped() {
					return nil, 0
				}
				if j, t := q.take(w); j != nil {
					return j, t
				}
				continue
			}
		}
		w.parks.Add(1)
		t0 := nowNs()
		<-w.park.token
		t1 := nowNs()
		l.noteWake(&w.park, t1)
		gap := t1 - t0
		w.idleNs.Add(gap)
		w.spinNs = fold(w.spinNs, gap)
		if q.stopped() {
			return nil, 0
		}
		if j, t := q.take(w); j != nil {
			return j, t
		}
	}
}

// runStage runs j's current stage, started at the reading t0, hands
// the outcome to the discipline and returns the record to run next on
// this worker, if any, with the reading that ended this stage. For a
// memory-class stage the worker arrives holding the home gate's slot
// and the class slot, and both go back as soon as the task returns,
// failed or not.
func (p *pool) runStage(w *worker, j *pairRec, t0 int64) (*pairRec, int64) {
	r := p.rt
	stage := j.stage
	dur, endNs, attempts, err := p.retry(w, j, t0)
	if stage != stageComp {
		r.releaseSlot(int(j.dom))
		r.releaseClass(int(j.class))
		p.released()
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
	return p.q.finish(w, j, dur, endNs, err), endNs
}

// retry executes j's current stage under the retry policy, its first
// attempt starting at the reading t0, and returns the successful
// attempt's duration and end reading plus the number of attempts made.
// Each attempt registers its start reading with the stall watchdog, and
// a retried attempt reads a fresh one after its backoff; a backoff ends
// early, with the failure, when stop closes.
func (p *pool) retry(w *worker, j *pairRec, t0 int64) (dur time.Duration, endNs int64, attempts int, err error) {
	pol := p.rt.cfg.Retry
	if p.flight != nil {
		f := &p.flight[w.slot]
		defer f.clear()
	}
	var rng *rand.Rand
	for attempts = 1; ; attempts++ {
		if p.flight != nil {
			p.flight[w.slot].set(j.seq, int(j.class), t0)
		}
		err = p.invoke(j)
		if err == nil {
			// The one reading that ends the stage: its duration, the
			// controller's Now and, for Serve, the service stamp.
			endNs = nowNs()
			return time.Duration(endNs - t0), endNs, attempts, nil
		}
		if !pol.enabled() || attempts >= pol.MaxAttempts {
			if attempts > 1 {
				err = fmt.Errorf("%w (after %d attempts)", err, attempts)
			}
			return 0, 0, attempts, err
		}
		select {
		case <-p.stop:
			return 0, 0, attempts, err
		default:
		}
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
			return 0, 0, attempts, err
		}
		t0 = nowNs()
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
// wall-clock timings under ctrlMu, the compute's end reading endNs as
// the sample's Now, mirrors the possibly-moved MTL into every domain
// gate, and — only when the limit rose — wakes workers for the new
// headroom (limitRose). Callers skip it for a Fixed throttler, which
// ignores samples and never moves.
func (p *pool) feedController(j *pairRec, tc time.Duration, endNs int64) {
	r := p.rt
	r.ctrlMu.Lock()
	r.th.OnPair(core.PairSample{
		Tm:    core.Time(time.Duration(j.tmNs).Seconds()),
		Tc:    core.Time(tc.Seconds()),
		Now:   core.Time(time.Duration(endNs - p.startNs).Seconds()),
		Class: int(j.class),
	})
	rose := r.mirrorLimit()
	r.ctrlMu.Unlock()
	if rose {
		p.limitRose()
	}
}

// scan finds the next runnable record for w and reads the clock that
// starts its stage, or returns nil when w should park: one admission
// attempt per domain, home first, and only where the ready count is
// non-zero, so an idle probe is a handful of loads with no CAS traffic,
// no wakes and no clock read. Every queued record is memory-class (a
// compute never queues) and is only returned with its domain's gate
// slot already held: admission precedes the take, so a slot is never
// claimed for work that does not exist.
func (p *pool) scan(w *worker) (*pairRec, int64) {
	for i, d := 0, w.home; i < len(p.doms); i++ {
		if j := p.takeMem(w, d); j != nil {
			return j, nowNs()
		}
		if d++; d == len(p.doms) {
			d = 0
		}
	}
	return nil, 0
}

// takeMem makes one admission attempt against domain d's gate and, with
// the slot held, takes the domain's next record in w's order. A worker
// with a scatter of its own queued (w.scatQueued) tries the scatters
// first, then the gathers, then Serve's ingress; any other worker tries
// the gathers, the ingress and the scatters last, so a scatter waits for
// the worker whose cache holds its compute's data unless nothing else
// can be admitted, and a class-capped gather set aside in gath goes
// ahead of fresh ingress. A raced-away slot is handed back with a nudge
// so a sleeper (or a fresh worker) retries while admissible work
// remains.
func (p *pool) takeMem(w *worker, d int) *pairRec {
	ds := &p.doms[d]
	if ds.readyMem.Load() == 0 {
		return nil
	}
	r := p.rt
	if !r.claimSlot(d) {
		return nil
	}
	// nil stands for the ingress ring.
	order := [...]*recList{&ds.gath, nil, &ds.scat}
	if w.scatQueued {
		order = [...]*recList{&ds.scat, &ds.gath, nil}
	}
	capped := false
	for _, l := range order {
		var j *pairRec
		if l != nil {
			j = l.take()
		} else if ds.pend != nil {
			j = ds.pend.pop()
		}
		if j == nil {
			continue
		}
		if r.admitClass(int(j.class)) {
			ds.readyMem.Add(-1)
			if j.stage == stageScat {
				w.scatQueued = false
			}
			return j
		}
		// Class-capped (limited or demoted): the record goes to the tail
		// of its list — an ingress job to gath — and the next list gets
		// its turn. The class slot's release wakes a sleeper (released),
		// so a capped class drains serialized instead of deadlocking.
		if l == nil {
			l = &ds.gath
		}
		l.put(j)
		capped = true
	}
	// Hand the speculative slot back. Raced away: nudge one sleeper only
	// if there is still admissible work it could run (spawning a fresh
	// worker if nobody is parked).
	r.releaseSlot(d)
	if !capped && ds.readyMem.Load() > 0 && !r.lot.unparkOne() {
		p.spawnWorker()
	}
	return nil
}

// ready is the pre-park spin's poll: could take find something now?
// Work queued behind a full gate does not count.
func (p *pool) ready() bool { return p.admissible() > 0 }

// admissible counts the records take could return now: each domain's
// ready records up to the slots its gate has free. Advisory, like the
// counts it sums.
func (p *pool) admissible() int64 {
	var n int64
	for d := range p.doms {
		if m := p.doms[d].readyMem.Load(); m > 0 {
			if room := p.rt.gates[d].room(); room > 0 {
				n += min(m, room)
			}
		}
	}
	return n
}

// offer is the wake rule, applied by a worker that has just finished a
// stage and holds held records it runs next (1 when it continues into
// the pair's compute, 0 after queuing a scatter): wake one sleeper (or
// spawn, when none is parked and the pool is below Workers) iff take
// could find a record beyond the publisher's next one and the
// publisher's next task should outlast λ/wakeDiv, λ being the measured
// wake latency (lot.wakeNs). Gast et al.: makespan is W/p plus a term
// linear in λ, so ~1 µs bodies never wake and ~100 µs ones overlap
// gather i+1 with compute i, as §IV-A assumes. The expectation is w's
// running mean sum/n for the stage's class, the other class's before
// its first sample; compared multiplied out, this runs per task.
func (p *pool) offer(w *worker, stage int32, held int64) {
	sum, n := w.sumTm.Load(), w.nTm.Load()
	if sc, nc := w.sumTc.Load(), w.nTc.Load(); n == 0 || (stage == stageComp && nc > 0) {
		sum, n = sc, nc
	}
	if wakeDiv*sum > p.rt.lot.wakeNs.Load()*n && held+p.admissible() >= 2 && !p.rt.lot.unparkOne() {
		p.spawnWorker()
	}
}

// queueScat advances j, whose compute w just ran, to its scatter: the
// record waits in its home domain's scatter list for a take to admit it,
// w's own next take tries that list first (w.scatQueued), and the wake
// rule runs with nothing held. The ready count rises before the put so
// no scanner can prove absence while the record is in flight.
func (p *pool) queueScat(w *worker, j *pairRec) {
	ds := &p.doms[j.dom]
	j.stage = stageScat
	ds.readyMem.Add(1)
	ds.scat.put(j)
	w.scatQueued = true
	p.offer(w, stageScat, 0)
}

// wakeDiv: a woken worker arrives λ late for the record it was sent for
// and is repaid by staying up (it spins 2λ between records, spin.go), so
// the threshold sits under λ. Sized on 2 vCPUs: host_stream reads λ
// 100-200 µs against Tc ~200 µs — at 1 every drift of λ past Tc cost a
// serial run (a tenth of them), at 2 and 4 none; host_dispatch reads λ
// 1.5-3 µs against ~0.5 µs bodies — blocking parks per Run 0.56-0.65 at
// the parent, 0.66-0.74 at 2, 0.87-0.99 at 4.
const wakeDiv = 2

// released follows a returned memory slot. A gather's slot is offered
// by the finish that continues into its compute, which follows at once
// and counts it free (offer); any other slot is reclaimed by its
// worker's next take, which follows the finish. Two cases cannot wait
// for that, and each wakes one sleeper. In class-aware mode the freed
// class slot may be just what a parked worker's capped record is
// waiting for while this worker moves on to other work. And a task
// outliving an aborted phase: its worker exits right after the
// release, and the slot may be what a *newer* phase's or session's
// sleepers wait for.
func (p *pool) released() {
	if p.rt.lim != nil || p.aborted.Load() {
		p.rt.lot.unparkOne()
	}
}

// limitRose follows a raised MTL (the controller's or the watchdog's):
// wake everyone (many sleepers may be gate-blocked) and grow the pool by
// one; the wake rule grows it further if that is still not enough.
func (p *pool) limitRose() {
	p.rt.lot.unparkAll()
	p.spawnWorker()
}
