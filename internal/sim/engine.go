// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by
// (time, sequence number). All model time in this repository is
// expressed in seconds as the float64-based Time type; helpers for
// common units are provided. Determinism is guaranteed: two events
// due at the same instant fire in sequence-number order, so repeated
// runs with the same inputs produce identical traces. An event takes
// its number when it is scheduled, or, through Reserve and AtFuncSeq,
// earlier: a number reserved at one point and scheduled under later
// fires exactly where an event scheduled at that point would have,
// ahead of younger events already queued for the same instant.
//
// The queue (wheel.go) is a near-horizon timing wheel merged with an
// indexed 4-ary min-heap over *Event for everything further out — no
// container/heap, no interface boxing on push/pop. Every callback is
// pre-bound, fn(arg) with fn typically a method value created once, so
// together with the event free list the steady-state schedule/fire
// cycle runs allocation-free (see BenchmarkEngineStepWheel and
// TestEngineSteadyStateZeroAlloc).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds.
type Time float64

// Common duration constants, in seconds.
const (
	Nanosecond  Time = 1e-9
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

// Never is a sentinel representing an unreachable point in time.
const Never Time = Time(math.MaxFloat64)

// Micros reports t in microseconds. Useful for human-readable output.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time in microseconds with fixed precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.3fus", t.Micros())
}

// Event is a scheduled callback, afn(arg). The callback runs with the
// engine clock set to the event's due time.
//
// Lifetime: an Event handle is valid only until the event fires or is
// cancelled — afterwards the engine recycles it for a future AtFunc or
// AfterFunc call, so holders must drop their reference once it is dead
// (sim.Shared, the one holder outside tests, replaces its reference
// whenever it reschedules). Cancelling an event that already fired or
// was already cancelled remains a no-op as long as the handle has not
// been reused.
type Event struct {
	due Time
	seq uint64

	// The callback is created once and the per-event state travels in
	// arg, which for a pointer payload costs no allocation.
	afn func(any)
	arg any

	index int // position in the far heap; -1 when not there

	// next chains the event into a timing-wheel slot list; loc says
	// which structure currently holds the event (a wheel slot index, or
	// one of the loc* constants).
	next *Event
	loc  int32

	dead   bool
	engine *Engine
}

// Due reports when the event will fire.
func (e *Event) Due() Time { return e.due }

// Cancel removes the event from the queue. Cancelling an event that
// already fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.dead || e.loc == locNone {
		return
	}
	eng := e.engine
	switch e.loc {
	case locHeap:
		eng.wheel.far.remove(e.index)
	case locCur:
		eng.wheel.removeCur(e)
	default:
		eng.wheel.unlink(e)
	}
	e.dead = true
	eng.recycle(e)
}

// eventQueue is an indexed 4-ary min-heap ordered by (due, seq): the
// engine's store for events beyond the wheel's window, and on its own
// the reference the merged queue is tested against. The wide fan-out
// halves the tree depth of a binary heap, and operating on *Event
// directly (instead of through heap.Interface) removes the any-boxing
// and virtual calls from every push and pop.
type eventQueue struct {
	ev []*Event
}

// before reports whether a fires strictly before b.
func before(a, b *Event) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e *Event) {
	e.loc = locHeap
	e.index = len(q.ev)
	q.ev = append(q.ev, e)
	q.siftUp(e.index)
}

func (q *eventQueue) pop() *Event {
	root := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = nil
	q.ev = q.ev[:n]
	if n > 0 {
		q.ev[0] = last
		last.index = 0
		q.siftDown(0)
	}
	root.index = -1
	root.loc = locNone
	return root
}

// remove deletes the event at heap position i.
func (q *eventQueue) remove(i int) {
	n := len(q.ev) - 1
	removed := q.ev[i]
	last := q.ev[n]
	q.ev[n] = nil
	q.ev = q.ev[:n]
	if i < n {
		q.ev[i] = last
		last.index = i
		q.siftDown(i)
		q.siftUp(i)
	}
	removed.index = -1
	removed.loc = locNone
}

func (q *eventQueue) siftUp(i int) {
	ev := q.ev
	e := ev[i]
	for i > 0 {
		p := (i - 1) / 4
		if !before(e, ev[p]) {
			break
		}
		ev[i] = ev[p]
		ev[i].index = i
		i = p
	}
	ev[i] = e
	e.index = i
}

func (q *eventQueue) siftDown(i int) {
	ev := q.ev
	n := len(ev)
	e := ev[i]
	for {
		c := 4*i + 1 // first child
		if c >= n {
			break
		}
		// Find the earliest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(ev[j], ev[m]) {
				m = j
			}
		}
		if !before(ev[m], e) {
			break
		}
		ev[i] = ev[m]
		ev[i].index = i
		i = m
	}
	ev[i] = e
	e.index = i
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool

	// fence is one past the sequence number of the event that fired
	// last at now: an event at (now, s) with s < fence has fired, or
	// would have (Passed). It is zero before the first Step and after
	// Reset, when nothing has; RunUntil, moving the clock past the last
	// event, sets it to seq.
	fence uint64

	// wheel is the event queue: see wheel.go.
	wheel timingWheel

	// free recycles fired/cancelled events: the simulation hot path
	// schedules and retires millions of events per run, and reusing
	// them keeps Step allocation-free (see BenchmarkEngineStepWheel).
	free []*Event
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// NewWheel is New: every engine runs on the wheel-and-heap queue of
// wheel.go, and callers use either name.
func NewWheel() *Engine { return New() }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// recycle returns a dead event to the free list. The callback and its
// argument are dropped immediately so they can be collected even while
// the event shell waits for reuse.
func (e *Engine) recycle(ev *Event) {
	ev.afn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// alloc takes an event shell off the free list (or allocates one) and
// stamps it with the next sequence number.
func (e *Engine) alloc(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	ev := e.shell(t)
	ev.seq = e.seq
	e.seq++
	return ev
}

// shell takes an event off the free list, or allocates one, due at t.
func (e *Engine) shell(t Time) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.dead = false
	} else {
		ev = &Event{}
	}
	ev.due = t
	ev.engine = e
	return ev
}

// AtFunc schedules the pre-bound callback fn(arg) at absolute time t:
// fn is typically a method value created once and stored by the
// caller, and arg carries the per-event state (a pointer payload costs
// no allocation when stored in the event). Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) AtFunc(t Time, fn func(any), arg any) *Event {
	ev := e.alloc(t)
	ev.afn = fn
	ev.arg = arg
	e.wheel.insert(ev)
	return ev
}

// Reserve takes the next sequence number without scheduling anything.
// An event scheduled later under it (AtFuncSeq) fires exactly where one
// scheduled now for the same time would have, because the queue orders
// by (due, seq) alone: a model can so decide late whether an event is
// needed at all without moving anything else.
func (e *Engine) Reserve() uint64 {
	s := e.seq
	e.seq++
	return s
}

// Passed reports whether an event at (t, seq) would already have fired:
// t is before now, or it is now and the event that fired last at now
// was numbered seq or later (the firing event itself has passed).
func (e *Engine) Passed(t Time, seq uint64) bool {
	return t < e.now || t == e.now && seq < e.fence
}

// AtFuncSeq is AtFunc under a sequence number taken earlier with
// Reserve. It panics if (t, seq) has passed, which would fire the event
// out of order, or if the number was never handed out.
func (e *Engine) AtFuncSeq(t Time, seq uint64, fn func(any), arg any) *Event {
	if seq >= e.seq || e.Passed(t, seq) {
		panic(fmt.Sprintf("sim: schedule at (%v, %d), which has passed or was never reserved", t, seq))
	}
	ev := e.shell(t)
	ev.seq = seq
	ev.afn = fn
	ev.arg = arg
	e.wheel.insert(ev)
	return ev
}

// AfterFunc schedules the pre-bound callback fn(arg) to run d seconds
// from now. See AtFunc.
func (e *Engine) AfterFunc(d Time, fn func(any), arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtFunc(e.now+d, fn, arg)
}

// Stop aborts a Run in progress after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to its initial state — clock at zero,
// sequence counter at zero, queue empty — while keeping the grown
// event free list and the queue's backing arrays. Any still-queued
// events are cancelled and recycled. A reset engine behaves
// bit-identically to a fresh one (event ordering depends only on
// (due, seq), both of which restart from zero), which is what lets
// the simsched rig reuse one engine across runs without perturbing a
// single result.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.fence = 0
	e.stopped = false
	e.wheel.reset(func(ev *Event) {
		ev.index = -1
		ev.loc = locNone
		ev.dead = true
		e.recycle(ev)
	})
}

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return e.wheel.pending() }

// Step fires the next event, advancing the clock to its due time.
// It reports false if the queue is empty.
func (e *Engine) Step() bool {
	ev := e.wheel.pop()
	if ev == nil {
		return false
	}
	ev.dead = true
	e.now = ev.due
	e.fence = ev.seq + 1
	ev.afn(ev.arg)
	// Recycle only after the callback returns: code running inside it
	// (sim.Shared's Cancel-then-reschedule) may still hold this handle,
	// and a reuse before those references are dropped would let a stale
	// Cancel kill an unrelated event.
	e.recycle(ev)
	return true
}

// Run fires events until the queue empties or Stop is called.
// It returns the final clock value.
func (e *Engine) Run() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// RunUntil fires events with due time <= deadline, then advances the
// clock to deadline if it has not already passed it.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped {
		ev := e.wheel.peek()
		if ev == nil || ev.due > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		// Every event numbered so far that is due by now has fired.
		e.now, e.fence = deadline, e.seq
	}
	return e.now
}
