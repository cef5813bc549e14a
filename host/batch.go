package host

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
)

// This file is the closed-loop queue discipline behind Run: the phase's
// gathers seed per-domain FIFOs in submission order, a gather's compute
// runs next on the worker that ran the gather, a compute's scatter
// waits in its home domain's scatter list, and admission is one gate
// claim by the worker about to run the task. The worker loop, the
// park/spin protocol, the stage runner and the controller feed are the
// shared runtime's (runtime.go).

// Run executes one phase of pairs to completion and returns its
// statistics. Within the phase, compute tasks run after their memory
// tasks, scatters after computes, and at most MTL memory tasks per
// domain are in flight. Run blocks until the phase completes (the
// paper's phases are barrier-separated).
func (r *Runtime) Run(pairs []Pair) (Stats, error) {
	return r.RunContext(context.Background(), pairs)
}

// RunContext is Run with cancellation: when ctx is cancelled (bound a
// run with context.WithTimeout) workers stop picking up tasks and the
// call returns the partial Stats of the completed prefix together with
// ctx's error. Tasks already executing are not interrupted — a worker
// wedged inside user code keeps its goroutine (and its gate slot)
// until the task returns — but the call itself returns promptly and
// the runtime stays usable.
func (r *Runtime) RunContext(ctx context.Context, pairs []Pair) (Stats, error) {
	if len(pairs) == 0 {
		return Stats{}, errors.New("host: Run with no pairs")
	}
	// Every pair of the phase lives in one index-ordered slab, so
	// dispatching a successor stage is a field store, not an allocation.
	nd := r.cfg.Domains
	recs := make([]pairRec, len(pairs))
	seeds := make([][]*pairRec, nd)
	total := 0
	for i, p := range pairs {
		j := &recs[i]
		switch fault, slot := j.fill(p); fault {
		case slotBoth:
			return Stats{}, fmt.Errorf("host: pair %d sets both %s and %sErr", i, slot, slot)
		case slotMissing:
			return Stats{}, fmt.Errorf("host: pair %d missing memory or compute task", i)
		case classRange:
			return Stats{}, fmt.Errorf("host: pair %d class = %d, want within [0, %d)", i, p.Class, core.MaxClasses)
		}
		d, err := r.homeOf(int64(i))
		if err != nil {
			return Stats{}, err
		}
		j.seq, j.dom = int64(i), int32(d)
		seeds[d] = append(seeds[d], j)
		total += 2
		if j.has(stageScat) {
			total++
		}
	}
	if err := ctx.Err(); err != nil {
		return Stats{Pairs: len(pairs), Cancelled: true}, err
	}
	if r.closed.Load() {
		return Stats{}, errors.New("host: runtime closed")
	}
	if r.serving.Load() {
		return Stats{}, errors.New("host: runtime is serving (drain the server first)")
	}

	ph := &phase{recs: recs, nd: nd, doms: make([]domainState, nd)}
	ph.setup(r, ph, &r.lot, "pair", ctx.Done())
	ph.remain.Store(int64(total))

	// The initial memory stages seed each domain's shared FIFO in
	// submission order, so gathers are admitted lowest pair first
	// within their domain exactly as a sorted global queue would.
	for d := range seeds {
		ds := &ph.doms[d]
		ds.pairs = len(seeds[d])
		ds.gath.seed(seeds[d])
		ds.readyMem.Store(int64(len(seeds[d])))
	}

	// The canceller propagates ctx into the phase: workers stop
	// taking records and every parked worker is woken, then the run
	// returns promptly with partial stats.
	go func() {
		select {
		case <-ctx.Done():
			ph.cancelRun(ctx.Err())
		case <-ph.done:
		}
	}()
	// A phase ends at its barrier, so a degraded controller is never
	// re-armed within one: recover-after 0.
	ph.armWatchdog(0)
	// The pool starts at what the admission limit can run — with
	// sharded domains, the per-domain limit times the domain count —
	// and grows on demand (pool.spawnWorker).
	n0 := min(int(r.gates[0].limit.Load())*nd+1, r.cfg.Workers, len(pairs))
	for w := 0; w < max(n0, 1); w++ {
		ph.spawnWorker()
	}

	// Completion or abort, whichever comes first; workers wedged in
	// user code do not block the return.
	<-ph.done

	st := Stats{
		Elapsed:        time.Since(ph.start),
		Pairs:          len(pairs),
		CompletedPairs: int(ph.completed.Load()),
		MaxConcurrentM: r.peakConcurrentM(),
		Retries:        int(ph.retries.Load()),
		Recovered:      int(ph.recovered.Load()),
		WakeLatency:    time.Duration(r.lot.wakeNs.Load()),
	}
	// Merge the striped per-worker shards into the per-domain view,
	// parks and idle attributed to the worker's home domain. This is the
	// only place the shards are summed — the per-task fast path touched
	// nothing shared.
	st.Domains = make([]DomainStats, nd)
	var sumTm, nTm, sumTc, nTc int64
	for i := range ph.workers {
		w := ph.workers[i].Load()
		if w == nil {
			continue
		}
		sumTm += w.sumTm.Load()
		nTm += w.nTm.Load()
		sumTc += w.sumTc.Load()
		nTc += w.nTc.Load()
		hd := &st.Domains[w.home]
		hd.Parks += int(w.parks.Load())
		hd.Idle += time.Duration(w.idleNs.Load())
	}
	for d := range st.Domains {
		st.Domains[d].Pairs = ph.doms[d].pairs
		st.Domains[d].PeakActive = int(r.gates[d].peak.Load())
	}
	ph.wdMu.Lock()
	st.Stalls = int(ph.stalls)
	for _, seq := range ph.stalled {
		st.Stalled = append(st.Stalled, int(seq))
	}
	ph.wdMu.Unlock()

	r.ctrlMu.Lock()
	st.FinalMTL = r.th.MTL()
	rep := core.ReportOf(r.th)
	r.ctrlMu.Unlock()
	st.MTLDecisions = rep.Decisions
	// The controller's state, not this run's: a phase never re-arms, and
	// the controller persists across runs, so does its fallback.
	st.Degraded = rep.Health.Degraded
	if nTm > 0 {
		st.MeanTm = time.Duration(sumTm / nTm)
	}
	if nTc > 0 {
		st.MeanTc = time.Duration(sumTc / nTc)
	}

	ph.stateMu.Lock()
	cancelErr, taskErr := ph.cancelErr, ph.err
	ph.stateMu.Unlock()
	st.Cancelled = cancelErr != nil
	switch {
	case cancelErr != nil:
		return st, cancelErr
	case taskErr != nil:
		return st, taskErr
	}
	return st, nil
}

// RunPhases executes phases back to back, returning per-phase stats.
func (r *Runtime) RunPhases(phases [][]Pair) ([]Stats, error) {
	var out []Stats
	for i, ph := range phases {
		st, err := r.Run(ph)
		if err != nil {
			return out, fmt.Errorf("host: phase %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// domainState is one memory domain's share of the phase: its two
// shared FIFOs of memory-class records and the advisory ready count over
// both. Parks and idle time are striped into the per-worker shards and
// merged into DomainStats only at end of run. readyMem keeps its own
// line: it is the one all-workers RMW word, and packing it beside the
// lists' mutexes made every publish invalidate the take fast path.
type domainState struct {
	// readyMem is an advisory upper bound on the records in scat and gath:
	// publishers increment *before* putting, so a zero read proves there
	// is nothing to find and an idle worker skips the domain's admission
	// attempt (and, crucially, the wake-another-worker path) with two
	// loads. Consumers decrement after a successful take, so the count
	// may transiently overshoot — costing a spurious scan, never a lost
	// record.
	readyMem atomic.Int64
	_        [56]byte
	scat     recList  // scatters of finished computes, each waiting for a gate slot
	gath     recList  // the phase's gathers, seeded in submission order
	pairs    int      // pairs homed here, set at seed time
	_        [24]byte // stride to a line multiple: no cross-domain sharing
}

// phase is one Run: the shared pool plus the batch discipline's queues.
type phase struct {
	pool
	nd   int       // memory domain count
	recs []pairRec // the phase's pairs, index-ordered
	doms []domainState

	remain    atomic.Int64 // tasks not yet finished
	completed atomic.Int64 // pairs whose compute finished

	stateMu   sync.Mutex
	err       error // first terminal task failure
	cancelErr error // ctx cancellation, set by the canceller
	aborted   atomic.Bool
}

// equip has nothing to give: a batch worker holds no queue of its own.
func (*phase) equip(*worker) {}

// stopped reports whether workers must drain: the phase aborted or
// every task finished.
func (ph *phase) stopped() bool {
	return ph.aborted.Load() || ph.remain.Load() <= 0
}

// abort marks the phase dead, releases RunContext and wakes every
// parked worker so it can observe the stop.
func (ph *phase) abort() {
	if ph.aborted.CompareAndSwap(false, true) {
		ph.shutdown()
	}
}

// fail records the first terminal task failure and aborts.
func (ph *phase) fail(err error) {
	ph.stateMu.Lock()
	if ph.err == nil && ph.cancelErr == nil {
		ph.err = err
	}
	ph.stateMu.Unlock()
	ph.abort()
}

// cancelRun records ctx expiry and aborts (no-op if a task failure
// already took the phase down).
func (ph *phase) cancelRun(err error) {
	ph.stateMu.Lock()
	if !ph.aborted.Load() && ph.err == nil {
		ph.cancelErr = err
	}
	ph.stateMu.Unlock()
	ph.abort()
}

// ready reports whether take could find something now.
func (ph *phase) ready() bool { return ph.admissible() > 0 }

// admissible counts the records take could return now: each domain's
// ready records up to the slots its gate has free. Advisory, like the
// counts it sums.
func (ph *phase) admissible() int64 {
	var n int64
	for d := range ph.doms {
		if m := ph.doms[d].readyMem.Load(); m > 0 {
			if room := ph.rt.gates[d].room(); room > 0 {
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
func (ph *phase) offer(w *worker, stage int32, held int64) {
	sum, n := w.sumTm.Load(), w.nTm.Load()
	if sc, nc := w.sumTc.Load(), w.nTc.Load(); n == 0 || (stage == stageComp && nc > 0) {
		sum, n = sc, nc
	}
	if wakeDiv*sum > ph.lot.wakeNs.Load()*n && held+ph.admissible() >= 2 && !ph.lot.unparkOne() {
		ph.spawnWorker()
	}
}

// wakeDiv: a woken worker arrives λ late for the record it was sent for
// and is repaid by staying up (it spins 2λ between records, spin.go), so
// the threshold sits under λ. Sized on 2 vCPUs: host_stream reads λ
// 100-200 µs against Tc ~200 µs — at 1 every drift of λ past Tc cost a
// serial run (a tenth of them), at 2 and 4 none; host_dispatch reads λ
// 1.5-3 µs against ~0.5 µs bodies — blocking parks per Run 0.56-0.65 at
// the parent, 0.66-0.74 at 2, 0.87-0.99 at 4.
const wakeDiv = 2

// take finds the next runnable record, or nil when the worker should
// park. Every queued record is memory-class (a compute never queues, see
// finish) and is only returned with its domain's gate slot already held
// (admission precedes the take, so the slot is never claimed for work
// that does not exist). The domains are tried home first, one admission
// attempt each, and only where the ready count is non-zero, so an idle
// probe is a handful of loads with no CAS traffic and no wakes.
func (ph *phase) take(w *worker) *pairRec {
	if ph.stopped() {
		return nil
	}
	for i := 0; i < ph.nd; i++ {
		if j := ph.takeMem(w, (w.home+i)%ph.nd); j != nil {
			return j
		}
	}
	return nil
}

// takeMem makes one admission attempt against domain d's gate and, with
// the slot held, takes the domain's oldest scatter or oldest gather. A
// worker with a scatter of its own queued (w.scatQueued) tries the
// scatters first; any other worker tries the gathers first, so a scatter
// waits for the worker whose cache holds its compute's data unless no
// gather can be admitted. A raced-away slot is handed back with a nudge
// so a sleeper (or a fresh worker) retries while admissible work
// remains.
func (ph *phase) takeMem(w *worker, d int) *pairRec {
	ds := &ph.doms[d]
	if ds.readyMem.Load() == 0 {
		return nil
	}
	r := ph.rt
	if r.claimSlots(d, 1) == 0 {
		return nil
	}
	lists := [...]*recList{&ds.gath, &ds.scat}
	if w.scatQueued {
		lists = [...]*recList{&ds.scat, &ds.gath}
	}
	capped := false
	for _, l := range lists {
		j := l.take()
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
		// Class-capped (limited or demoted): the record goes back to the
		// tail of its list, and the other list gets its turn. The class
		// slot's release wakes a sleeper (released), so a capped class
		// drains serialized instead of deadlocking.
		l.put(j)
		capped = true
	}
	// Hand the speculative slot back. Raced away: nudge one sleeper only
	// if there is still admissible work it could run (spawning a fresh
	// worker if nobody is parked).
	r.releaseSlots(d, 1)
	if !capped && ds.readyMem.Load() > 0 && !ph.lot.unparkOne() {
		ph.spawnWorker()
	}
	return nil
}

// released follows a returned memory slot. A gather's slot is offered
// by the finish that continues into its compute, which follows at once
// and counts it free (offer); a scatter's is reclaimed by its worker's
// next take. Two cases cannot wait for that. In class-aware mode the
// freed class slot may be just what a parked worker's capped record is
// waiting for while this worker moves on to other work — wake one
// sleeper. And a task outliving an aborted phase: its worker exits
// right after the release, and the slot may be the one a *newer*
// phase's sleepers wait for.
func (ph *phase) released(*pairRec) {
	if ph.rt.lim != nil {
		ph.lot.unparkOne()
	}
	if ph.aborted.Load() {
		ph.lot.unparkOne()
	}
}

// limitRose wakes everyone (many sleepers may be gate-blocked) and
// grows the pool by one; the wake rule grows it further if that is
// still not enough.
func (ph *phase) limitRose() {
	ph.lot.unparkAll()
	ph.spawnWorker()
}

// finish feeds a finished stage back into the dispatch state: surface a
// terminal failure, continue a gather into its compute on this worker
// (as Server.finish does), queue a compute's scatter in its home
// domain's scatter list and feed the controller, and end the phase with
// its last task. The result of a task that outlived an abort is dropped
// (its gate slot is already back).
func (ph *phase) finish(w *worker, j *pairRec, dur time.Duration, end time.Time, err error) *pairRec {
	if err != nil {
		ph.fail(err)
		return nil
	}
	if ph.aborted.Load() {
		return nil
	}
	var next *pairRec
	switch j.stage {
	case stageMem:
		j.stage = stageComp
		next = j
		ph.offer(w, stageComp, 1)
	case stageComp:
		ph.completed.Add(1)
		if j.has(stageScat) {
			// The ready count rises before the put so no scanner can
			// prove absence while the record is in flight.
			ds := &ph.doms[j.dom]
			j.stage = stageScat
			ds.readyMem.Add(1)
			ds.scat.put(j)
			w.scatQueued = true
			ph.offer(w, stageScat, 0)
		}
		// The scatter may already be running elsewhere; what the
		// controller reads of j (tmNs, class) no later stage writes.
		if ph.adaptive {
			ph.feedController(j, dur, end)
		}
	}
	if ph.remain.Add(-1) == 0 {
		ph.shutdown()
	}
	return next
}
