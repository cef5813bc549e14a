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
// gathers seed per-domain FIFOs in submission order, the phase ends when
// its last task finishes (or the first terminal failure or ctx aborts
// it), and Stats are merged from the workers' shards. Queues, admission
// on take, the wake rule, the worker loop, the park/spin protocol, the
// stage runner and the controller feed are the shared runtime's
// (runtime.go).

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
		d := r.homeOf(int64(i))
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

	ph := &phase{recs: recs}
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
	ph.armWatchdog()
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
		Elapsed:        time.Duration(nowNs() - ph.startNs),
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

// phase is one Run: the shared pool plus the phase's records, its task
// count and its failure state.
type phase struct {
	pool
	recs []pairRec // the phase's pairs, index-ordered

	remain    atomic.Int64 // tasks not yet finished
	completed atomic.Int64 // pairs whose compute finished

	stateMu   sync.Mutex
	err       error // first terminal task failure
	cancelErr error // ctx cancellation, set by the canceller
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

// take finds the next runnable record and its start reading
// (pool.scan), or nil when the worker should park or the phase has
// stopped.
func (ph *phase) take(w *worker) (*pairRec, int64) {
	if ph.stopped() {
		return nil, 0
	}
	return ph.scan(w)
}

// finish feeds a finished stage back into the dispatch state: surface a
// terminal failure, continue a gather into its compute on this worker
// (as Server.finish does), queue a compute's scatter in its home
// domain's scatter list and feed the controller, and end the phase with
// its last task. The result of a task that outlived an abort is dropped
// (its gate slot is already back).
func (ph *phase) finish(w *worker, j *pairRec, dur time.Duration, endNs int64, err error) *pairRec {
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
			ph.queueScat(w, j)
		}
		// The scatter may already be running elsewhere; what the
		// controller reads of j (tmNs, class) no later stage writes.
		if ph.adaptive {
			ph.feedController(j, dur, endNs)
		}
	}
	if ph.remain.Add(-1) == 0 {
		ph.shutdown()
	}
	return next
}
