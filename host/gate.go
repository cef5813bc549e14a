package host

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// gate is the atomic-counter MTL gate: admission of a memory-class
// task is one CAS on the in-flight counter against the current limit —
// no lock anywhere on the hot path. The limit mirrors the controller's
// MTL() (stored under Runtime.ctrlMu whenever the controller moves it),
// so workers never touch the controller to ask permission.
//
// The gate spans Run calls on purpose: a worker wedged in user code
// from an aborted phase still holds its slot until the task returns,
// so the paper's hard invariant — never more than MTL memory tasks in
// flight — holds across overlapping phase teardown exactly as the old
// mutex-and-counter implementation did.
//
// Layout: limit is read-mostly — every admission loads it, pollers
// (Runtime.MTL, watchdogs, samplers) load it, and only the controller
// stores it — while active/peak absorb a CAS per admission and an add
// per release. Packed together (the pre-padding layout) every
// admission CAS invalidated the line under all the limit readers;
// padded apart, readers of the mirrored limit keep their line in
// shared state across admissions. The trailing pad strides the struct
// to two full lines so adjacent per-domain gates in Runtime.gates
// never share a line either. TestLayoutHotStructs pins the offsets.
type gate struct {
	limit  atomic.Int64 // current MTL, mirrored from the controller (read-mostly)
	_      [56]byte
	active atomic.Int64 // memory-class tasks in flight (CAS-hot)
	peak   atomic.Int64 // high-water mark of active, reset per Run
	_      [48]byte
}

// tryAcquireN claims up to max slots and reports how many it got (0
// when the gate is full or max <= 0). The admission check and the
// increment are a single CAS, so racing workers can never slip through
// the last slot together. Run admits one task at a time (max 1);
// batched admission on the serving path admits a whole run of queued
// jobs per gate transition: one CAS where per-job admission would retry
// max times under contention.
func (g *gate) tryAcquireN(max int64) int64 {
	if max <= 0 {
		return 0
	}
	for {
		a := g.active.Load()
		free := g.limit.Load() - a
		if free <= 0 {
			return 0
		}
		n := min(free, max)
		if g.active.CompareAndSwap(a, a+n) {
			raise(&g.peak, a+n)
			return n
		}
	}
}

// raise lifts a high-water mark to v if it is below v.
func raise(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// releaseN returns n slots. No wakeup rides on it: what a freed slot
// is worth is the queue discipline's call (discipline.released).
func (g *gate) releaseN(n int64) {
	if n <= 0 {
		return
	}
	if g.active.Add(-n) < 0 {
		panic("host: gate released below zero")
	}
}

// room reports how many slots an admission could claim now (<= 0: none).
func (g *gate) room() int64 { return g.limit.Load() - g.active.Load() }

// resetPeak restarts the per-Run high-water mark at the current
// occupancy (slots may still be held by a previous phase's wedged
// tasks).
func (g *gate) resetPeak() {
	g.peak.Store(g.active.Load())
}

// parker is one worker's wakeup slot: a 1-buffered token channel. The
// discipline — a token is sent only after the parker is popped from
// the lot, and the owner drains before re-enqueueing — guarantees at
// most one token is ever outstanding, so sends never block. The
// unparker stamps the parker it popped before sending: the token orders
// the stamp before the owner's read.
type parker struct {
	token  chan struct{}
	queued bool      // guarded by lot.mu
	woken  time.Time // when the unparker that popped it sent the token
}

// lot is the parked-waiter list: workers that found no runnable job
// (empty queues, or only gate-blocked memory work) enqueue themselves
// and block on their token. Every event that creates a dispatch
// opportunity — a successor job published, a gate slot released, an MTL
// raise, phase end — wakes exactly the workers it can satisfy instead
// of broadcasting to all of them. The lock guards only the waiter
// list; workers with work in hand never touch it.
type lot struct {
	mu     sync.Mutex
	parked []*parker

	// spinners counts workers currently in the adaptive pre-park spin
	// (spin.go). It caps concurrent spinning so burst arrivals get
	// low-latency handoff without idle workers burning every core, and
	// is padded off the mutex's line so spin entry/exit never bounces
	// the lock word the unpark paths take.
	_        [32]byte
	spinners atomic.Int64

	// wakeNs is λ, the wake latency: an EWMA of token sent → blocked
	// worker running again, folded by each worker as it wakes. The wake
	// rule (batch.go) and the spin budget (spin.go) are stated in it; 0
	// until the first blocking park ends.
	wakeNs atomic.Int64
	_      [48]byte
}

// noteWake folds one blocked park's wake latency into λ. A sample
// counts for at most twice the estimate: a wakeup that waited out
// somebody else's time slice (p99 0.4-2 ms against a p50 near 100 µs on
// 2 vCPUs) is not the wake latency, and an inflated λ sustains itself
// (no wakes, no samples). Racing folds may drop one.
func (l *lot) noteWake(p *parker) {
	lam, s := l.wakeNs.Load(), time.Since(p.woken).Nanoseconds()
	if lam > 0 {
		s = min(s, 2*lam)
	}
	l.wakeNs.Store(fold(lam, s))
}

// beginSpin claims one of the lot's spin slots (at most max concurrent
// spinners). On false the caller parks immediately.
func (l *lot) beginSpin(max int64) bool {
	if max <= 0 {
		return false
	}
	for {
		n := l.spinners.Load()
		if n >= max {
			return false
		}
		if l.spinners.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// endSpin returns a spin slot.
func (l *lot) endSpin() { l.spinners.Add(-1) }

// enqueue registers p as parked. Callers must not hold lot.mu. The
// caller re-scans for work *after* enqueueing: any job published after
// that re-scan finds p in the list and wakes it, so no wakeup is lost
// (the Dekker-style store/check orders of parker and publisher cross).
func (l *lot) enqueue(p *parker) {
	select {
	case <-p.token: // drop a stale token from a wake we never consumed
	default:
	}
	l.mu.Lock()
	p.queued = true
	l.parked = append(l.parked, p)
	l.mu.Unlock()
}

// cancel withdraws p after its post-enqueue re-scan found work. If an
// unparker popped p concurrently, its token is in flight — consume it
// so the next enqueue starts clean.
func (l *lot) cancel(p *parker) {
	l.mu.Lock()
	if p.queued {
		p.queued = false
		for i := len(l.parked) - 1; i >= 0; i-- { // LIFO: self is near the end
			if l.parked[i] == p {
				l.parked = append(l.parked[:i], l.parked[i+1:]...)
				break
			}
		}
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	<-p.token
}

// unparkOne wakes the most recently parked worker (cache-warm, and the
// oldest sleepers stay asleep under light load). Reports whether a
// sleeper was woken; on false the caller may spawn a fresh worker
// instead (the phase lazily grows its pool up to Config.Workers).
func (l *lot) unparkOne() bool {
	l.mu.Lock()
	n := len(l.parked)
	if n == 0 {
		l.mu.Unlock()
		return false
	}
	p := l.parked[n-1]
	l.parked = l.parked[:n-1]
	p.queued = false
	l.mu.Unlock()
	p.woken = time.Now()
	p.token <- struct{}{}
	return true
}

// unparkN wakes up to n of the most recently parked workers under a
// single lock acquisition and reports how many it woke. Batched
// admission pairs this with gate.tryAcquireN: admitting a run of k jobs
// costs one lock and k token sends instead of k lock round-trips.
func (l *lot) unparkN(n int) int {
	if n <= 0 {
		return 0
	}
	l.mu.Lock()
	var woken []*parker
	if n >= len(l.parked) {
		// Everyone: hand the whole list over instead of copying it.
		woken, l.parked = l.parked, nil
	} else {
		woken = make([]*parker, n)
		copy(woken, l.parked[len(l.parked)-n:])
		l.parked = l.parked[:len(l.parked)-n]
	}
	for _, p := range woken {
		p.queued = false
	}
	l.mu.Unlock()
	if len(woken) == 0 {
		return 0
	}
	now := time.Now()
	for _, p := range woken {
		p.woken = now
		p.token <- struct{}{}
	}
	return len(woken)
}

// unparkAll wakes every parked worker — reserved for the rare events
// that can satisfy many at once (MTL raise, degradation to the
// conventional schedule) or that end the phase (completion, abort).
func (l *lot) unparkAll() { l.unparkN(math.MaxInt) }
