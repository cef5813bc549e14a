package sim

import (
	"testing"
	"testing/quick"
)

// window is the near window's span in time: a delay shorter than it
// lands in a slot, a longer one in the far heap.
const window = wheelSlots * DefaultWheelTick

// mid(k) is a due time safely inside tick k: k*tick itself can round
// down a bucket (4 ns is not a power-of-two float), and the boundary
// tests below are about landing on exact ticks.
func mid(k float64) Time { return Time(k+0.5) * DefaultWheelTick }

func wantOrder(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestWheelOrdering spans both stores — slots and the far heap — and
// checks global (due, seq) fire order plus the final clock.
func TestWheelOrdering(t *testing.T) {
	e := NewWheel()
	var got []int
	dues := []Time{
		5 * Millisecond,              // far heap
		Microsecond,                  // slot
		100 * Microsecond,            // far heap
		10 * Nanosecond,              // slot
		12 * Nanosecond,              // next slot
		100*Microsecond + Nanosecond, // far heap, later due
	}
	for i, d := range dues {
		i := i
		at(e, d, func() { got = append(got, i) })
	}
	e.Run()
	wantOrder(t, got, []int{3, 4, 1, 2, 5, 0})
	if e.Now() != 5*Millisecond {
		t.Errorf("Now() = %v, want 5ms", e.Now())
	}
}

// TestWheelTieBreakInsertionOrder pins the determinism contract the
// heap provides: same-instant events fire in insertion order, both when
// scheduled up front and when chained from inside a callback at the
// exact current instant.
func TestWheelTieBreakInsertionOrder(t *testing.T) {
	e := NewWheel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		at(e, Microsecond, func() {
			got = append(got, i)
			if i == 0 {
				// Chained same-instant event: must fire after every
				// already-queued event at this due time (newer seq).
				at(e, e.Now(), func() { got = append(got, 100) })
			}
		})
	}
	e.Run()
	wantOrder(t, got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100})
}

// TestWheelSameTickOrdering schedules distinct due times that share one
// bucket: the drained bucket must still fire by (due, seq).
func TestWheelSameTickOrdering(t *testing.T) {
	e := NewWheel()
	var got []Time
	base := 40 * Nanosecond // tick 10: 40.0 .. 43.9 ns
	for _, d := range []Time{3, 1, 2, 1} {
		at(e, base+d*Nanosecond, func() { got = append(got, e.Now()) })
	}
	e.Run()
	for i, d := range []Time{1, 1, 2, 3} {
		if got[i] != base+d*Nanosecond {
			t.Fatalf("within-tick order = %v", got)
		}
	}
}

// TestWheelMerge covers the seam the two stores meet at: what pop does
// when the far heap's root and the wheel's head compete.
func TestWheelMerge(t *testing.T) {
	// A far event comes due between two near ones: it was beyond the
	// window when scheduled, and by the time the window reaches it the
	// wheel holds events on both sides. It fires from the heap.
	t.Run("far between near", func(t *testing.T) {
		e := NewWheel()
		var got []int
		far := at(e, 3*Microsecond, func() { got = append(got, 1) })
		at(e, 2*Microsecond, func() {
			got = append(got, 0)
			near := at(e, 3500*Nanosecond, func() { got = append(got, 2) })
			if far.loc != locHeap || near.loc < 0 {
				t.Errorf("loc: far %d, near %d; want the heap and a slot", far.loc, near.loc)
			}
		})
		e.Run()
		wantOrder(t, got, []int{0, 1, 2})
	})
	// Root and head tie on due: the sequence number decides. Through
	// the API the far event is always the older one (an event scheduled
	// later for the same instant finds that instant at least as close
	// to the cursor), but the merge is a plain before() and must not
	// lean on that, so the second case forces the younger one into the
	// heap by rewinding the sequence counter.
	for name, farSeq := range map[string]uint64{"tie far older": 0, "tie far younger": 9} {
		t.Run(name, func(t *testing.T) {
			e := NewWheel()
			var got []int
			due := 3 * Microsecond
			e.seq = farSeq
			far := at(e, due, func() { got = append(got, int(farSeq)) })
			e.seq = 1
			at(e, 2*Microsecond, func() {
				e.seq = 5
				near := at(e, due, func() { got = append(got, 5) })
				if far.loc != locHeap || near.loc < 0 {
					t.Errorf("loc: far %d, near %d; want the heap and a slot", far.loc, near.loc)
				}
			})
			e.Run()
			if farSeq < 5 {
				wantOrder(t, got, []int{int(farSeq), 5})
			} else {
				wantOrder(t, got, []int{5, int(farSeq)})
			}
		})
	}
}

// TestWheelCursorFollowsClock: when the wheel is idle and a far event
// fires, the window moves to that instant, so what its callback
// schedules nearby — the same instant included — is slotted rather
// than sorted into the firing bucket behind a stale cursor.
func TestWheelCursorFollowsClock(t *testing.T) {
	e := NewWheel()
	var got []int
	at(e, Millisecond, func() {
		got = append(got, 0)
		now := at(e, e.Now(), func() { got = append(got, 1) })
		near := after(e, 100*Nanosecond, func() { got = append(got, 2) })
		far := after(e, 2*window, func() { got = append(got, 3) })
		if now.loc < 0 || near.loc < 0 || far.loc != locHeap {
			t.Errorf("loc: now %d, near %d, far %d; want two slots and the heap", now.loc, near.loc, far.loc)
		}
	})
	e.Run()
	wantOrder(t, got, []int{0, 1, 2, 3})
}

// TestWheelRingReuse walks two chains several times around the ring —
// one stepping a coprime stride, one re-arming into the slot just
// behind the one it fired from — so every slot index is reused on a
// later lap for a different tick.
func TestWheelRingReuse(t *testing.T) {
	e := NewWheel()
	var got []Time
	chain := func(stride Time, hops int) {
		n := 0
		var fn func()
		fn = func() {
			got = append(got, e.Now())
			if n++; n < hops {
				if ev := after(e, stride, fn); ev.loc < 0 {
					t.Errorf("hop %d of stride %v left the wheel (loc %d)", n, stride, ev.loc)
				}
			}
		}
		after(e, stride, fn)
	}
	chain(101*DefaultWheelTick, 30)            // ~6 laps
	chain((wheelSlots-1)*DefaultWheelTick, 12) // ~12 laps, slot index falling by one
	e.Run()
	if len(got) != 42 {
		t.Fatalf("fired %d events, want 42", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("clock went backwards at event %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestWheelCancelEverywhere cancels events while they sit in each of
// the queue's stores: a slot, the far heap, and the sorted firing
// bucket mid-drain.
func TestWheelCancelEverywhere(t *testing.T) {
	e := NewWheel()
	var got []int
	keep := func(i int) func() { return func() { got = append(got, i) } }

	slot := at(e, Microsecond, func() { t.Error("cancelled slot event ran") })
	at(e, Microsecond, keep(1))
	far := at(e, 20*Millisecond, func() { t.Error("cancelled far event ran") })
	at(e, 20*Millisecond, keep(2))

	// curVictim shares an instant with its canceller, which is queued
	// first, so both are in the firing bucket when the canceller runs;
	// keep(0) is queued behind the victim and must close the gap.
	var curVictim *Event
	at(e, 100*Nanosecond, func() {
		if curVictim.loc != locCur {
			t.Errorf("victim loc = %d, want the firing bucket", curVictim.loc)
		}
		curVictim.Cancel()
	})
	curVictim = at(e, 100*Nanosecond, func() { t.Error("cancelled firing-bucket event ran") })
	at(e, 100*Nanosecond, keep(0))

	if slot.loc < 0 || far.loc != locHeap {
		t.Fatalf("loc: slot %d, far %d; want a slot and the heap", slot.loc, far.loc)
	}
	slot.Cancel()
	far.Cancel()
	slot.Cancel() // double-cancel stays a no-op
	e.Run()

	wantOrder(t, got, []int{0, 1, 2})
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// TestWheelFarFuture: a lone event far past the window fires from the
// heap without the cursor stepping through the dead air before it, and
// an event at Never — past what the tick conversion can represent —
// waits in the heap until everything nearer has fired.
func TestWheelFarFuture(t *testing.T) {
	e := NewWheel()
	fired := false
	at(e, 30*Second, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 30*Second {
		t.Fatalf("fired=%v Now=%v, want true and 30s", fired, e.Now())
	}
	e2 := NewWheel()
	var got []int
	at(e2, Never, func() {
		got = append(got, 1)
		at(e2, Never, func() { got = append(got, 2) })
	})
	at(e2, Microsecond, func() { got = append(got, 0) })
	e2.Run()
	wantOrder(t, got, []int{0, 1, 2})
}

// TestWheelReset mirrors TestEngineReset with events in every store: a
// reset engine behaves bit-identically to a fresh one and recycles the
// shells of everything still queued.
func TestWheelReset(t *testing.T) {
	run := func(e *Engine) []int {
		var got []int
		at(e, 2*Microsecond, func() { got = append(got, 2) })
		at(e, 1*Microsecond, func() { got = append(got, 1) })
		at(e, 1*Microsecond, func() { got = append(got, 10) })
		after(e, 3*Millisecond, func() { got = append(got, 3) })
		e.Run()
		return got
	}
	fresh := run(NewWheel())

	e := NewWheel()
	run(e)
	at(e, e.Now()+Microsecond, func() {})
	cur := at(e, e.Now()+Microsecond, func() { t.Error("firing-bucket event survived Reset") })
	slot := at(e, e.Now()+1500*Nanosecond, func() { t.Error("slot event survived Reset") })
	queued := at(e, e.Now()+Second, func() { t.Error("far event survived Reset") })
	e.Step() // drains the first two into the firing bucket and fires one
	if cur.loc != locCur || slot.loc < 0 || queued.loc != locHeap {
		t.Fatalf("loc: %d %d %d; want the firing bucket, a slot and the heap", cur.loc, slot.loc, queued.loc)
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now = %v pending = %d, want 0 and 0", e.Now(), e.Pending())
	}
	queued.Cancel() // stale handle after Reset: must be a no-op

	wantOrder(t, run(e), fresh)
}

// TestWheelWindowBoundaryDrain pins the one boundary the queue has, the
// far edge of the window, against the mistake a drain landing exactly
// on a boundary once made (stepping past events waiting just beyond
// it): the last slot of the window drains, and what waits on the other
// side — in the heap, because it was beyond the edge when scheduled —
// must still fire before anything later that the moved window now lets
// into slots.
func TestWheelWindowBoundaryDrain(t *testing.T) {
	t.Run("edge-slot", func(t *testing.T) {
		e := NewWheel()
		var got []int
		// A is in the window's last slot; B and C are past the edge.
		a := at(e, mid(wheelSlots-1), func() { got = append(got, 0) })
		b := at(e, mid(wheelSlots), func() { got = append(got, 1) })
		at(e, mid(wheelSlots+300), func() { got = append(got, 2) })
		if a.loc != wheelSlots-1 || b.loc != locHeap {
			t.Fatalf("loc: A %d, B %d; want slot %d and the heap", a.loc, b.loc, wheelSlots-1)
		}
		e.Run()
		wantOrder(t, got, []int{0, 1, 2})
	})
	t.Run("far-and-near-share-tick", func(t *testing.T) {
		e := NewWheel()
		var got []int
		// A drains the window's last slot. B waits in the heap; E,
		// scheduled from A's callback into B's tick with a later due,
		// goes to a slot. Only the merge at pop puts B first.
		b := at(e, mid(wheelSlots+64), func() { got = append(got, 1) })
		at(e, mid(wheelSlots-1), func() {
			got = append(got, 0)
			ev := at(e, mid(wheelSlots+64)+Nanosecond, func() { got = append(got, 2) })
			if b.loc != locHeap || ev.loc < 0 {
				t.Errorf("loc: B %d, E %d; want the heap and a slot", b.loc, ev.loc)
			}
		})
		e.Run()
		wantOrder(t, got, []int{0, 1, 2})
	})
}

// TestWheelSteadyStateZeroAlloc pins the wheel's zero-allocation
// contract, matching TestEngineSteadyStateZeroAlloc on the heap.
func TestWheelSteadyStateZeroAlloc(t *testing.T) {
	e := NewWheel()
	s := &stepper{e: e}
	s.fn = s.tick
	e.AfterFunc(Nanosecond, s.fn, s)
	for i := 0; i < 512; i++ { // warm the free list and bucket backing
		e.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("steady-state wheel schedule/fire allocates %.2f allocs/op, want 0", avg)
	}
}

// --- differential driver: the merged queue vs a plain heap ----------

// refEngine is the oracle: the Engine's clock and numbering rules over
// the bare eventQueue heap, and nothing else. A position has passed
// when it is at or before the last fired event's.
type refEngine struct {
	now  Time
	seq  uint64
	q    eventQueue
	last *Event
}

// scriptEngine is what runScript needs of either engine.
type scriptEngine interface {
	after(d Time, fn func()) *Event
	reserve() uint64
	passed(t Time, seq uint64) bool
	atSeq(t Time, seq uint64, fn func()) *Event
	cancel(ev *Event)
	step() bool
	clock() Time
}

func (r *refEngine) after(d Time, fn func()) *Event {
	return r.atSeq(r.now+d, r.reserve(), fn)
}
func (r *refEngine) reserve() uint64 {
	r.seq++
	return r.seq - 1
}
func (r *refEngine) passed(t Time, seq uint64) bool {
	return r.last != nil && !before(r.last, &Event{due: t, seq: seq})
}
func (r *refEngine) atSeq(t Time, seq uint64, fn func()) *Event {
	ev := &Event{due: t, seq: seq, afn: call, arg: fn}
	r.q.push(ev)
	return ev
}
func (r *refEngine) cancel(ev *Event) { r.q.remove(ev.index) }
func (r *refEngine) clock() Time      { return r.now }
func (r *refEngine) step() bool {
	if r.q.len() == 0 {
		return false
	}
	ev := r.q.pop()
	r.now, r.last = ev.due, ev
	ev.afn(ev.arg)
	return true
}

type realEngine struct{ *Engine }

func (e realEngine) after(d Time, fn func()) *Event { return after(e.Engine, d, fn) }
func (e realEngine) reserve() uint64                { return e.Reserve() }
func (e realEngine) passed(t Time, seq uint64) bool { return e.Passed(t, seq) }
func (e realEngine) atSeq(t Time, seq uint64, fn func()) *Event {
	return e.AtFuncSeq(t, seq, call, fn)
}
func (e realEngine) cancel(ev *Event) { ev.Cancel() }
func (e realEngine) step() bool       { return e.Step() }
func (e realEngine) clock() Time      { return e.Now() }

// firedAt is one trace entry of the differential driver.
type firedAt struct {
	label int
	at    Time
}

// scriptDelay decodes two bytes into a delay chosen to hit every store
// and seam: the current instant, sub-tick offsets, whole ticks inside
// the window, the far heap, and delays one tick shy of, exactly on and
// one tick past the window's edge, alone and in multiples.
func scriptDelay(a, b byte) Time {
	m := Time(b)
	switch a % 7 {
	case 0:
		return 0
	case 1:
		return m * Nanosecond
	case 2:
		return m * 2 * DefaultWheelTick
	case 3:
		return 20*Microsecond + m*Microsecond
	case 4:
		return m * window // edge-aligned
	case 5:
		return window + (Time(b%3)-1)*DefaultWheelTick // edge -1, edge, edge +1
	default:
		return 5*Millisecond + m*Millisecond
	}
}

// reservation is a sequence number a script took for an event it has
// not scheduled yet.
type reservation struct {
	due Time
	seq uint64
}

// runScript interprets ops as a deterministic schedule/cancel/step
// program against one engine and returns the fire trace. The same
// script run on the reference heap and on the Engine must produce the
// same trace — that is the queue's whole correctness contract.
func runScript(e scriptEngine, ops []byte) []firedAt {
	var got []firedAt
	var live []*Event
	var reserved []reservation
	label := 0
	plain := func(sched func(fn func()) *Event) {
		l, slot := label, len(live)
		label++
		live = append(live, nil)
		live[slot] = sched(func() {
			live[slot] = nil // handle is dead: stop cancelling it
			got = append(got, firedAt{l, e.clock()})
		})
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		switch op % 6 {
		case 0: // schedule a plain event
			plain(func(fn func()) *Event { return e.after(scriptDelay(a, b), fn) })
		case 1: // schedule an event that chains a same-instant follow-up
			l := label
			label++
			live = append(live, nil)
			slot := len(live) - 1
			live[slot] = e.after(scriptDelay(a, b), func() {
				live[slot] = nil
				got = append(got, firedAt{l, e.clock()})
				e.after(0, func() { got = append(got, firedAt{l + 1<<20, e.clock()}) })
			})
		case 2: // fire a few events
			for k := 0; k <= int(a%8); k++ {
				if !e.step() {
					break
				}
			}
		case 3: // cancel a still-live handle
			if len(live) > 0 {
				if ev := live[int(a)%len(live)]; ev != nil {
					e.cancel(ev)
					live[int(a)%len(live)] = nil
				}
			}
		case 4: // reserve a number for an event due after a delay
			reserved = append(reserved, reservation{e.clock() + scriptDelay(a, b), e.reserve()})
		case 5: // schedule a reserved event, unless its position has passed
			if n := len(reserved); n > 0 {
				r := reserved[int(a)%n]
				reserved[int(a)%n] = reserved[n-1]
				reserved = reserved[:n-1]
				if !e.passed(r.due, r.seq) {
					plain(func(fn func()) *Event { return e.atSeq(r.due, r.seq, fn) })
				}
			}
		}
	}
	for e.step() {
	}
	return got
}

func diffScript(t *testing.T, ops []byte) {
	t.Helper()
	heap := runScript(&refEngine{}, ops)
	wheel := runScript(realEngine{NewWheel()}, ops)
	if len(heap) != len(wheel) {
		t.Fatalf("heap fired %d events, wheel fired %d (ops %v)", len(heap), len(wheel), ops)
	}
	for i := range heap {
		if heap[i] != wheel[i] {
			t.Fatalf("divergence at event %d: heap %+v, wheel %+v (ops %v)", i, heap[i], wheel[i], ops)
		}
	}
}

// reservedScripts reserve a number, schedule an event behind it at the
// same due time, and only then schedule the reserved event, so that it
// must fire first: from the firing bucket (the older same-instant
// event has fired and the younger waits in the bucket's live tail),
// from a wheel slot, and from the far heap, where it displaces the
// root. The fourth reserves at the current instant and steps past it
// first: the event is dropped as passed. want is the labels in fire
// order.
var reservedScripts = []struct {
	name string
	ops  []byte
	want []int
}{
	{"firing bucket", []byte{0, 2, 10, 4, 2, 10, 0, 2, 10, 2, 0, 0, 5, 0, 0}, []int{0, 2, 1}},
	{"slot", []byte{4, 2, 10, 0, 2, 10, 5, 0, 0}, []int{1, 0}},
	{"far heap root", []byte{4, 6, 1, 0, 6, 1, 5, 0, 0}, []int{1, 0}},
	{"passed", []byte{4, 0, 0, 0, 1, 5, 2, 0, 0, 5, 0, 0}, []int{0}},
}

// TestWheelReservedSeq runs reservedScripts against the heap, and checks
// on the engine that each lands where its name says and fires ahead of
// the event scheduled before it.
func TestWheelReservedSeq(t *testing.T) {
	for _, c := range reservedScripts {
		diffScript(t, c.ops)
		got := runScript(realEngine{NewWheel()}, c.ops)
		labels := make([]int, len(got))
		for i, f := range got {
			labels[i] = f.label
		}
		t.Run(c.name, func(t *testing.T) { wantOrder(t, labels, c.want) })
	}

	nop := func(any) {}
	e := NewWheel()
	first := at(e, 80*Nanosecond, func() {})
	bucket := e.Reserve()
	at(e, 80*Nanosecond, func() {})
	slot, far := e.Reserve(), e.Reserve()
	root := at(e, 6*Millisecond, func() {})
	if ev := e.AtFuncSeq(mid(100), slot, nop, nil); ev.loc < 0 {
		t.Errorf("slot case landed at loc %d", ev.loc)
	}
	if ev := e.AtFuncSeq(6*Millisecond, far, nop, nil); ev.loc != locHeap || e.wheel.far.ev[0] != ev || root.index == 0 {
		t.Errorf("far case: loc %d, root replaced %v", ev.loc, e.wheel.far.ev[0] == ev)
	}
	e.Step()
	if e.Now() != first.Due() {
		t.Fatalf("first step fired at %v", e.Now())
	}
	if ev := e.AtFuncSeq(80*Nanosecond, bucket, nop, nil); ev.loc != locCur || e.wheel.cur[e.wheel.curPos] != ev {
		t.Errorf("bucket case: loc %d, not at the head of the live tail", ev.loc)
	}
}

// TestWheelMatchesHeap runs the differential driver over generated op
// scripts via testing/quick: the engine must agree with the reference
// heap on the exact fire order, including cancels, interleaved steps,
// same-instant chained events and events scheduled under reserved
// numbers.
func TestWheelMatchesHeap(t *testing.T) {
	prop := func(ops []byte) bool {
		diffScript(t, ops)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEventQueue is the open-ended form of TestWheelMatchesHeap: the
// fuzzer explores op scripts looking for any divergence between the
// engine and the reference heap.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 1, 10, 1, 0, 0, 2, 3, 0, 3, 0, 0})
	f.Add([]byte{0, 4, 200, 0, 3, 50, 2, 7, 0, 0, 2, 64, 3, 1, 0})
	f.Add([]byte{1, 0, 0, 1, 2, 9, 2, 1, 0, 0, 4, 255, 3, 2, 0, 2, 7, 7})
	for _, c := range reservedScripts {
		f.Add(c.ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*4096 {
			t.Skip("script too long")
		}
		diffScript(t, ops)
	})
}

// benchRing measures the schedule/fire cycle with depth pending events
// spaced gap apart, each re-arming itself one full round ahead.
func benchRing(b *testing.B, depth int, gap Time) {
	e := NewWheel()
	var fn func(any)
	fn = func(any) { e.AfterFunc(Time(depth)*gap, fn, nil) }
	for i := 0; i < depth; i++ {
		e.AfterFunc(Time(i)*gap, fn, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// The steady-state schedule/fire cycle at its smallest — one pending
// event re-arming itself 1 ns out, its shell ping-ponging between the
// queue and the free list — and one micro-pin for each regime of the
// merged queue: hundreds of events a tick apart (a DRAM calibration:
// all slots), and a handful tens of microseconds apart (a simsched
// run: all far heap, the cursor following the clock).
func BenchmarkEngineStepWheel(b *testing.B)        { benchRing(b, 1, Nanosecond) }
func BenchmarkEngineStepWheelDeep256(b *testing.B) { benchRing(b, 256, DefaultWheelTick) }
func BenchmarkEngineStepSparse(b *testing.B)       { benchRing(b, 8, 50*Microsecond) }
