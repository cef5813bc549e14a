package sim

import (
	"math/bits"
	"slices"
)

// This file implements the engine's event queue: one near-horizon
// timing wheel merged, at every pop, with a far 4-ary heap.
//
// The two kinds of traffic the engine carries want opposite things.
// DRAM simulation schedules at short fixed latencies (bank busy, burst,
// front end, think time: 2-58 ns), hundreds of events in flight, and
// is best served by array indexing; the fluid scheduler model keeps a
// handful of events tens of microseconds apart, where a small heap
// beats any wheel that has to carry them down through coarser levels.
// So each event is routed by its own distance from the cursor:
//
//   - inside the window — wheelSlots ticks of DefaultWheelTick from the
//     cursor, a ring indexed by tick&wheelMask — it is linked into its
//     tick's slot, and an occupancy bitmap makes "next non-empty slot"
//     a few trailing-zero scans;
//   - beyond the window it goes to the far heap and fires *from* the
//     heap: nothing is ever moved from one store to the other.
//
// pop and peek take the (due, seq) minimum of the wheel's head and the
// heap's root.
//
// Determinism contract (see DESIGN.md §7): events fire in exactly the
// (due, seq) order of a single heap. The tick index floor(due/tick) is
// monotone in due and every slot of the sliding window holds exactly
// one tick index, so a smaller tick means a strictly earlier due time;
// a drained slot is sorted by (due, seq) before any of it fires; an
// event whose tick is already behind the cursor (due == now is the
// common case: callbacks chaining work at the same instant) is inserted
// into the sorted residue of the firing bucket by (due, seq) — a fresh
// number lands it after every queued event at the same due time, a
// reserved one (Engine.AtFuncSeq) may land it before some; and the
// heap root is compared with the wheel head by the same before() at
// every pop. Where the cursor stands therefore only decides
// which store an event waits in, never when it fires.
const (
	wheelSlots = 512 // ticks in the near window; a power of two
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64 // occupancy bitmap words
)

// DefaultWheelTick is the slot width, the queue's one constant. At
// 4 ns a DRAM calibration's buckets hold one or two events (DESIGN.md
// §7 has the table behind the number) and the 512-slot window spans
// 2 µs, past every DRAM latency including a refresh stall.
const DefaultWheelTick = 4 * Nanosecond

// wheelInvTick is ticks per second: tickOf(t) = floor(t*wheelInvTick).
const wheelInvTick = 1 / float64(DefaultWheelTick)

// Event location codes stored in Event.loc. Non-negative values are
// wheel slot indices.
const (
	locNone int32 = -1 // not queued (fired, cancelled, or fresh)
	locHeap int32 = -2 // in the far heap
	locCur  int32 = -3 // in the wheel's sorted firing bucket
)

// timingWheel is the Engine's event queue. The zero value is empty and
// ready to use.
type timingWheel struct {
	// cursor is the first tick of the window: slots hold ticks in
	// [cursor, cursor+wheelSlots), every event of an earlier tick has
	// fired or sits in cur.
	cursor uint64

	slots [wheelSlots]*Event
	occ   [wheelWords]uint64

	// cur is the bucket being fired, sorted by (due, seq); curPos is
	// the next position to pop.
	cur    []*Event
	curPos int

	// near is the number of events in slots plus the live tail of cur.
	near int

	// far holds events scheduled beyond the window.
	far eventQueue
}

// maxWheelTick guards the float-to-uint conversion: anything past it
// (including Never) saturates to maxWheelTickIdx, which no window
// reaches, and waits in the far heap.
const (
	maxWheelTick    = float64(1 << 62)
	maxWheelTickIdx = ^uint64(0)
)

// tickOf maps an absolute time to its tick index. The conversion is
// monotone (IEEE multiply and floor both are), which is all bucketing
// needs; boundary rounding merely moves an event between adjacent
// buckets whose drain order still respects (due, seq).
func tickOf(t Time) uint64 {
	f := float64(t) * wheelInvTick
	if f >= maxWheelTick {
		return maxWheelTickIdx
	}
	return uint64(f)
}

// insert routes an event to the firing bucket, a wheel slot, or the
// far heap.
func (w *timingWheel) insert(e *Event) {
	ti := tickOf(e.due)
	switch {
	case ti < w.cursor:
		w.insertCur(e)
	case ti-w.cursor < wheelSlots:
		slot := int(ti & wheelMask)
		e.loc = int32(slot)
		e.next = w.slots[slot]
		w.slots[slot] = e
		w.occ[slot>>6] |= 1 << uint(slot&63)
		w.near++
	default:
		w.far.push(e)
	}
}

// unlink removes a cancelled event from its slot list, clearing
// occupancy if the slot empties. The lists are singly linked — a slot
// holds an event or two, and insert and drain run far more often than
// Cancel finds its event still in a slot — so it walks from the head.
func (w *timingWheel) unlink(e *Event) {
	slot := int(e.loc)
	p := &w.slots[slot]
	for *p != e {
		p = &(*p).next
	}
	*p = e.next
	if w.slots[slot] == nil {
		w.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	e.next = nil
	e.loc = locNone
	w.near--
}

// insertCur places e into the sorted live tail of the firing bucket.
// Positions before curPos have fired, and e belongs after them: its
// (due, seq) has not passed (alloc numbers it afresh, AtFuncSeq refuses
// a passed one). Within the live tail it goes by before(), so a
// reserved sequence number older than queued events at the same due
// time walks back past them.
func (w *timingWheel) insertCur(e *Event) {
	if w.curPos == len(w.cur) {
		// Nothing live: start over, so a chain of such inserts (far
		// events re-arming at their own instant) cannot grow cur.
		w.cur, w.curPos = w.cur[:0], 0
	}
	i := len(w.cur)
	for i > w.curPos && before(e, w.cur[i-1]) {
		i--
	}
	w.cur = append(w.cur, nil)
	copy(w.cur[i+1:], w.cur[i:])
	w.cur[i] = e
	e.loc = locCur
	w.near++
}

// removeCur deletes a cancelled event from the live tail of cur.
func (w *timingWheel) removeCur(e *Event) {
	i := w.curPos
	for w.cur[i] != e {
		i++
	}
	copy(w.cur[i:], w.cur[i+1:])
	w.cur[len(w.cur)-1] = nil
	w.cur = w.cur[:len(w.cur)-1]
	e.loc = locNone
	w.near--
}

// nextTick returns the tick of the first occupied slot at or after the
// cursor, scanning the ring once around. At least one slot must be
// occupied.
func (w *timingWheel) nextTick() uint64 {
	start := int(w.cursor & wheelMask)
	word := start >> 6
	b := w.occ[word] &^ (1<<uint(start&63) - 1)
	for b == 0 {
		word = (word + 1) & (wheelWords - 1)
		b = w.occ[word]
	}
	slot := word<<6 + bits.TrailingZeros64(b)
	return w.cursor + uint64((slot-start)&wheelMask)
}

// drain moves the next occupied slot's list — all events of one tick —
// into cur, sorted by (due, seq), and steps the cursor past it. A
// lone event, the usual case at this tick width, needs no sort; small
// buckets get an in-place insertion sort, and past a threshold (ties
// by the hundred when a model runs without jitter) pdqsort. Both are
// allocation-free, and stability is irrelevant because (due, seq) is a
// total order.
func (w *timingWheel) drain() {
	ti := w.nextTick()
	slot := int(ti & wheelMask)
	e := w.slots[slot]
	w.slots[slot] = nil
	w.occ[slot>>6] &^= 1 << uint(slot&63)
	w.cursor = ti + 1
	cur := w.cur[:0]
	for e != nil {
		next := e.next
		e.next = nil
		e.loc = locCur
		cur = append(cur, e)
		e = next
	}
	w.cur, w.curPos = cur, 0
	if len(cur) <= 16 {
		for i := 1; i < len(cur); i++ {
			ev := cur[i]
			j := i
			for j > 0 && before(ev, cur[j-1]) {
				cur[j] = cur[j-1]
				j--
			}
			cur[j] = ev
		}
	} else {
		slices.SortFunc(cur, cmpEvent)
	}
}

// cmpEvent orders events by (due, seq) for slices.SortFunc.
func cmpEvent(a, b *Event) int {
	switch {
	case before(a, b):
		return -1
	case before(b, a):
		return 1
	default:
		return 0
	}
}

// peek returns the next event to fire without consuming it, or nil.
// It may drain a slot into cur, which moves the cursor but not what
// fires next or in what order.
func (w *timingWheel) peek() *Event {
	if w.curPos == len(w.cur) {
		if w.near == 0 {
			if len(w.far.ev) == 0 {
				return nil
			}
			return w.far.ev[0]
		}
		w.drain()
	}
	e := w.cur[w.curPos]
	if len(w.far.ev) > 0 && before(w.far.ev[0], e) {
		return w.far.ev[0]
	}
	return e
}

// pop consumes and returns the next event, or nil when empty.
func (w *timingWheel) pop() *Event {
	e := w.peek()
	switch {
	case e == nil:
	case e.loc == locHeap:
		w.far.pop()
		if w.near == 0 {
			// The wheel is idle, so the window is free to follow the
			// clock: whatever this event's callback schedules nearby
			// lands in slots again instead of behind a stale cursor.
			if ti := tickOf(e.due); ti > w.cursor && ti != maxWheelTickIdx {
				w.cursor = ti
			}
		}
	default:
		w.curPos++
		w.near--
		e.loc = locNone
	}
	return e
}

// pending reports the number of queued events in both stores.
func (w *timingWheel) pending() int { return w.near + w.far.len() }

// reset hands every queued event to retire — the firing bucket, then
// the slots in tick order, then the far heap — and rewinds the cursor.
// (Positions of cur already popped keep their pointers: they point at
// shells the engine's free list owns anyway.)
func (w *timingWheel) reset(retire func(*Event)) {
	for w.near > 0 {
		if w.curPos == len(w.cur) {
			w.drain()
		}
		retire(w.cur[w.curPos])
		w.curPos++
		w.near--
	}
	w.cur, w.curPos = w.cur[:0], 0
	for _, e := range w.far.ev {
		retire(e)
	}
	w.far.ev = w.far.ev[:0]
	w.cursor = 0
}
