// Package contend implements a fluid (processor-sharing) model of
// memory-task contention. Request-level DRAM simulation (internal/mem)
// is accurate but too slow for full-program runs over hundreds of
// workload configurations; this package abstracts it to the law the
// calibration fits:
//
//	time(F bytes @ concurrency a) = F * (tml + a*tql)  per byte
//
// where a is the instantaneous total weight of active actors. When
// membership changes mid-task, progress integrates piecewise — which
// also models the "non-steady state" transients the paper credits for
// its small model errors (§VI-A). Cross-validation tests assert the
// fluid model tracks the request-level simulator.
package contend

import (
	"fmt"

	"memthrottle/internal/mem"
	"memthrottle/internal/sim"
)

// Params are the per-byte contention coefficients, normally obtained
// from a DRAM calibration fit.
type Params struct {
	TmlPerByte float64 // seconds per byte, contention-free component
	TqlPerByte float64 // seconds per byte added per unit of concurrency
}

// FromCalibration converts a request-level calibration into fluid
// parameters.
func FromCalibration(cal mem.Calibration) Params {
	tml, tql := cal.PerByte()
	return Params{TmlPerByte: tml, TqlPerByte: tql}
}

// Validate reports a parameter error, if any.
func (p Params) Validate() error {
	if p.TmlPerByte <= 0 || p.TqlPerByte < 0 {
		return fmt.Errorf("contend: params %+v, want TmlPerByte > 0 and TqlPerByte >= 0", p)
	}
	return nil
}

// TaskTime reports the duration of a memory task of the given
// footprint under constant concurrency a.
func (p Params) TaskTime(footprintBytes float64, a float64) sim.Time {
	return sim.Time(footprintBytes * (p.TmlPerByte + a*p.TqlPerByte))
}

// Actor is one in-flight memory transfer in the pool.
type Actor struct {
	pool      *Pool
	seq       uint64 // start order; fixes callback ordering
	weight    float64
	remaining float64   // bytes left to transfer
	fn        func(any) // completion callback, called as fn(arg); or
	arg       any       // nil fn and a func() in arg: the closure form
	// The three below share one word, which keeps an Actor in the
	// 64-byte size class it had when its callback was a bare func().
	idx    int32 // position in pool.actors; -1 once removed
	active bool
	pooled bool // started without a handle: the shell returns to pool.free
}

// Active reports whether the actor is still in flight.
func (a *Actor) Active() bool { return a.active }

// Remaining reports the bytes left to transfer (after accounting for
// progress up to the current engine time).
func (a *Actor) Remaining() float64 {
	a.pool.settle()
	return a.remaining
}

// Pool tracks the set of active memory actors and advances their
// progress under the fluid contention law. Active actors live in an
// index-tracked slice (not a map): iteration is deterministic and
// allocation-free, and removal is an O(1) swap via Actor.idx. The due
// and firing scratch slices plus the pre-bound fire callback keep the
// settle/reschedule/fire cycle free of steady-state allocations, and
// transfers started through StartFunc — which hands out no *Actor —
// reuse completed actor shells, so a steady stream of them allocates
// nothing at all.
type Pool struct {
	eng        *sim.Engine
	params     Params
	actors     []*Actor // active actors, unordered; Actor.idx tracks slots
	weight     float64
	lastSettle sim.Time
	next       *sim.Event
	due        []*Actor  // actors the pending event will complete
	firing     []*Actor  // scratch swapped with due while callbacks run
	fireFn     func(any) // pre-bound fire, so reschedule never allocates
	free       []*Actor  // completed StartFunc shells awaiting reuse

	started   uint64
	completed uint64
}

// NewPool creates a pool bound to the engine. Invalid params panic:
// they are a construction-time programming error.
func NewPool(eng *sim.Engine, params Params) *Pool {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	p := &Pool{eng: eng, params: params}
	p.fireFn = p.fire
	return p
}

// Reset returns the pool to the state NewPool(eng, params) builds,
// keeping its scratch slices and recycled actor shells, so one pool can
// serve run after run. The engine must have been reset first: actors
// still in flight are dropped without their callbacks and the pending
// completion event is forgotten, not cancelled. Invalid params panic.
func (p *Pool) Reset(params Params) {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	p.params = params
	for i, a := range p.actors {
		a.active, a.idx = false, -1
		p.actors[i] = nil
	}
	p.actors = p.actors[:0]
	p.weight, p.lastSettle, p.next = 0, 0, nil
	p.due = p.due[:0]
	p.started, p.completed = 0, 0
}

// remove unlinks an actor from the active slice by swapping the last
// slot into its place.
func (p *Pool) remove(a *Actor) {
	last := len(p.actors) - 1
	moved := p.actors[last]
	p.actors[a.idx] = moved
	moved.idx = a.idx
	p.actors[last] = nil
	p.actors = p.actors[:last]
	a.idx = -1
}

// Params returns the pool's contention coefficients.
func (p *Pool) Params() Params { return p.params }

// Count reports the number of active actors.
func (p *Pool) Count() int { return len(p.actors) }

// ActiveWeight reports the summed weight of active actors (the "a" in
// the contention law).
func (p *Pool) ActiveWeight() float64 { return p.weight }

// Started and Completed report lifetime actor counts.
func (p *Pool) Started() uint64   { return p.started }
func (p *Pool) Completed() uint64 { return p.completed }

// perByte returns the current per-byte transfer time.
func (p *Pool) perByte() float64 {
	return p.params.TmlPerByte + p.weight*p.params.TqlPerByte
}

// settle integrates progress from lastSettle to now at the current
// concurrency level.
func (p *Pool) settle() {
	now := p.eng.Now()
	dt := float64(now - p.lastSettle)
	p.lastSettle = now
	if dt == 0 || len(p.actors) == 0 {
		return
	}
	progressed := dt / p.perByte()
	for _, a := range p.actors {
		a.remaining -= progressed
		if a.remaining < 0 {
			a.remaining = 0
		}
	}
}

// reschedule cancels any pending completion event and schedules the
// next one at the earliest actor completion under current concurrency.
// The due actors are remembered and force-completed when the event
// fires: re-deriving them from float comparisons at fire time can
// leave a hair of remaining work and stall virtual time.
func (p *Pool) reschedule() {
	if p.next != nil {
		p.next.Cancel()
		p.next = nil
	}
	p.due = p.due[:0]
	if len(p.actors) == 0 {
		return
	}
	minRem := -1.0
	for _, a := range p.actors {
		if minRem < 0 || a.remaining < minRem {
			minRem = a.remaining
		}
	}
	const relTol = 1e-12
	for _, a := range p.actors {
		if a.remaining <= minRem*(1+relTol) {
			p.due = append(p.due, a)
		}
	}
	sortActorsBySeq(p.due)
	delay := sim.Time(minRem * p.perByte())
	p.next = p.eng.AfterFunc(delay, p.fireFn, nil)
}

// sortActorsBySeq is an insertion sort: the due set is almost always
// one or two actors, and unlike sort.Slice it needs no closure and no
// reflection. Sequence numbers are unique, so the order is total.
func sortActorsBySeq(as []*Actor) {
	for i := 1; i < len(as); i++ {
		x := as[i]
		j := i - 1
		for j >= 0 && as[j].seq > x.seq {
			as[j+1] = as[j]
			j--
		}
		as[j+1] = x
	}
}

// fire completes the actors the pending event was scheduled for.
func (p *Pool) fire(any) {
	p.settle()
	// Swap the due set into the firing scratch: reschedule below will
	// rebuild due, and the callbacks must see the set frozen at
	// schedule time.
	p.firing, p.due = p.due, p.firing[:0]
	for _, a := range p.firing {
		p.remove(a)
		p.weight -= a.weight
		a.active = false
		a.remaining = 0
		p.completed++
	}
	if p.weight < 1e-12 && len(p.actors) == 0 {
		p.weight = 0 // absorb float drift at idle
	}
	p.reschedule()
	// Callbacks run after internal state is consistent: they may
	// start new actors.
	for _, a := range p.firing {
		fn, arg := a.fn, a.arg
		if a.pooled {
			// Nobody holds this actor, so its shell is free the moment
			// the callback has been read out — the callback itself may
			// already reuse it for the transfer it starts.
			a.fn, a.arg = nil, nil
			p.free = append(p.free, a)
		}
		if fn != nil {
			fn(arg)
		} else if done, ok := arg.(func()); ok {
			done()
		}
	}
}

// Start adds a transfer of footprintBytes with the given concurrency
// weight; done (may be nil) fires at completion. Weight is 1 for a
// memory task; compute tasks with LLC-overflow miss traffic join with
// their miss fraction as weight. Panics on non-positive footprint or
// weight out of (0, 1]. The returned handle stays valid after
// completion (Active, Remaining) and may be passed to Cancel.
func (p *Pool) Start(footprintBytes, weight float64, done func()) *Actor {
	if done == nil {
		return p.start(footprintBytes, weight, nil, nil, false)
	}
	// The closure form of a callback: no fn, the func() itself as arg
	// (a func value is pointer-shaped, so the any allocates nothing).
	// fire calls it directly, which costs Start nothing over the
	// dedicated func() field it replaces.
	return p.start(footprintBytes, weight, nil, done, false)
}

// StartFunc is Start for hot loops: at completion it calls fn(arg) —
// fn typically a method value created once, arg the per-transfer state
// — and it returns no handle, which is what lets the pool recycle the
// actor shell. The transfer cannot be cancelled or inspected. A nil fn
// means no callback and wants a nil arg.
func (p *Pool) StartFunc(footprintBytes, weight float64, fn func(any), arg any) {
	p.start(footprintBytes, weight, fn, arg, true)
}

// start is the one start path behind Start and StartFunc.
func (p *Pool) start(footprintBytes, weight float64, fn func(any), arg any, pooled bool) *Actor {
	if footprintBytes <= 0 {
		panic(fmt.Sprintf("contend: Start with footprint %g", footprintBytes))
	}
	if weight <= 0 || weight > 1 {
		panic(fmt.Sprintf("contend: Start with weight %g, want (0, 1]", weight))
	}
	p.settle()
	var a *Actor
	if n := len(p.free); pooled && n > 0 {
		a = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		a = &Actor{pool: p}
	}
	a.seq, a.weight, a.remaining = p.started, weight, footprintBytes
	a.fn, a.arg = fn, arg
	a.active, a.pooled, a.idx = true, pooled, int32(len(p.actors))
	p.actors = append(p.actors, a)
	p.weight += weight
	p.started++
	p.reschedule()
	return a
}

// Cancel removes an in-flight actor without firing its callback.
// Cancelling an inactive actor is a no-op.
func (p *Pool) Cancel(a *Actor) {
	if !a.active {
		return
	}
	p.settle()
	p.remove(a)
	p.weight -= a.weight
	a.active = false
	p.reschedule()
}
