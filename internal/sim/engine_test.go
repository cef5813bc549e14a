package sim

import (
	"testing"
	"testing/quick"
)

// call runs a closure carried as an event's argument: through at and
// after, the tests schedule closures on the one callback form.
func call(fn any) { fn.(func())() }

func at(e *Engine, t Time, fn func()) *Event    { return e.AtFunc(t, call, fn) }
func after(e *Engine, d Time, fn func()) *Event { return e.AfterFunc(d, call, fn) }

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	at(e, 3*Microsecond, func() { got = append(got, 3) })
	at(e, 1*Microsecond, func() { got = append(got, 1) })
	at(e, 2*Microsecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*Microsecond {
		t.Errorf("Now() = %v, want 3us", e.Now())
	}
}

func TestEngineTieBreakInsertionOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		at(e, Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var fired []Time
	after(e, Microsecond, func() {
		fired = append(fired, e.Now())
		after(e, 2*Microsecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != Microsecond || fired[1] != 3*Microsecond {
		t.Fatalf("fired = %v, want [1us 3us]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	ran := false
	ev := after(e, Microsecond, func() { ran = true })
	ev.Cancel()
	ev.Cancel() // double-cancel is a no-op
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel, want 0", e.Pending())
	}
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = at(e, Time(i+1)*Microsecond, func() { got = append(got, i) })
	}
	evs[2].Cancel()
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineCancelAfterFireNoop(t *testing.T) {
	e := New()
	ev := after(e, Microsecond, func() {})
	e.Run()
	ev.Cancel() // must not panic or corrupt the queue
	if e.Pending() != 0 {
		t.Fatal("queue not empty")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New()
	after(e, 2*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		at(e, Microsecond, func() {})
	})
	e.Run()
}

// TestEngineAtFuncSeqPanics: a number reserved before an event was
// queued fires ahead of it at the same instant, and scheduling under a
// reserved number is refused when (t, seq) has passed — t before now,
// or t equal to now and seq not after the firing event's — and for a
// number that was never reserved.
func TestEngineAtFuncSeqPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	nop := func(any) {}
	var got []string
	e := New()
	early := e.Reserve()        // 0
	at(e, Microsecond, func() { // 1
		e.AtFuncSeq(2*Microsecond, early, func(any) { got = append(got, "reserved") }, nil)
	})
	at(e, 2*Microsecond, func() { // 2
		got = append(got, "queued")
		mustPanic("a time before now", func() { e.AtFuncSeq(Microsecond, early, nop, nil) })
		mustPanic("the firing event's own position", func() { e.AtFuncSeq(2*Microsecond, 2, nop, nil) })
		mustPanic("an older number at now", func() { e.AtFuncSeq(2*Microsecond, 1, nop, nil) })
		mustPanic("a number never reserved", func() { e.AtFuncSeq(3*Microsecond, e.seq, nop, nil) })
	})
	e.Run()
	if len(got) != 2 || got[0] != "reserved" || got[1] != "queued" {
		t.Fatalf("fired %v, want [reserved queued]", got)
	}
}

// TestEnginePassed pins Passed at its edges: nothing has passed before
// the first Step or after Reset, the firing event has passed inside its
// own callback, a later number at the same instant has not, and
// RunUntil's jump of the clock passes every number handed out before it.
func TestEnginePassed(t *testing.T) {
	e := New()
	if e.Passed(0, 0) {
		t.Error("(0, 0) passed before the first Step")
	}
	s := e.Reserve()
	at(e, 0, func() {
		if !e.Passed(0, s) || !e.Passed(0, 1) {
			t.Error("the firing event or an older number has not passed inside its callback")
		}
		if e.Passed(0, 2) || e.Passed(Nanosecond, 0) {
			t.Error("a later number at now, or a later time, has passed")
		}
	})
	e.Run()
	// RunUntil moving the clock past the last event has fired, in
	// effect, everything numbered by then at the new instant.
	late := e.Reserve()
	e.RunUntil(Microsecond)
	if !e.Passed(Microsecond, late) || e.Passed(Microsecond, late+1) {
		t.Error("after RunUntil: a number reserved before it has not passed, or a later one has")
	}
	e.Reset()
	if e.Passed(0, 0) {
		t.Error("(0, 0) passed after Reset")
	}
}

func TestEngineStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		at(e, Time(i)*Microsecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var fired int
	for i := 1; i <= 5; i++ {
		at(e, Time(i)*Microsecond, func() { fired++ })
	}
	e.RunUntil(3 * Microsecond)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if e.Now() != 3*Microsecond {
		t.Fatalf("Now = %v, want 3us", e.Now())
	}
	// Deadline beyond all events advances the clock to the deadline.
	e.RunUntil(10 * Microsecond)
	if fired != 5 || e.Now() != 10*Microsecond {
		t.Fatalf("fired=%d Now=%v, want 5 and 10us", fired, e.Now())
	}
}

// Property: regardless of the order delays are scheduled in, events fire
// in nondecreasing time order and the final clock equals the max delay.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		e := New()
		var last Time = -1
		ok := true
		var maxT Time
		for _, d := range delaysRaw {
			due := Time(d) * Nanosecond
			if due > maxT {
				maxT = due
			}
			at(e, due, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		end := e.Run()
		return ok && end == maxT
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventRecycling pins the free-list contract: a fired or cancelled
// event's shell is reused by the next schedule, and a stale Cancel on a
// dead-but-not-yet-reused handle stays a no-op.
func TestEventRecycling(t *testing.T) {
	e := New()
	fired := after(e, Microsecond, func() {})
	e.Run()
	fired.Cancel() // stale cancel on a dead handle: must be a no-op
	reused := after(e, Microsecond, func() {})
	if reused != fired {
		t.Error("fired event shell was not reused by the next schedule")
	}

	cancelled := after(e, 5*Microsecond, func() {})
	cancelled.Cancel()
	if again := after(e, Microsecond, func() {}); again != cancelled {
		t.Error("cancelled event shell was not reused by the next schedule")
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

// TestEventRecyclingRescheduleLoop exercises the pattern sim.Shared
// relies on: each callback cancels a (possibly dead) companion
// event and schedules a replacement. A steady-state loop must keep
// firing in order with the free list churning shells underneath.
func TestEventRecyclingRescheduleLoop(t *testing.T) {
	e := New()
	var companion *Event
	count := 0
	var step func()
	step = func() {
		count++
		companion.Cancel() // already fired and recycled: must be a no-op
		if count < 100 {
			companion = after(e, Microsecond/2, func() {})
			after(e, Microsecond, step)
		}
	}
	companion = after(e, Microsecond/2, func() {})
	after(e, Microsecond, step)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

// TestEngineReset pins the warm-start contract: a reset engine must
// behave bit-identically to a fresh one. Still-queued events are
// recycled (not leaked), the clock and sequence counter restart from
// zero, and a schedule replayed on the reset engine fires in exactly
// the order a fresh engine produces.
func TestEngineReset(t *testing.T) {
	run := func(e *Engine) []int {
		var got []int
		at(e, 2*Microsecond, func() { got = append(got, 2) })
		at(e, 1*Microsecond, func() { got = append(got, 1) })
		at(e, 1*Microsecond, func() { got = append(got, 10) }) // tie: insertion order
		after(e, 3*Microsecond, func() { got = append(got, 3) })
		e.Run()
		return got
	}
	fresh := run(New())

	e := New()
	run(e)
	// Leave events queued and the clock advanced, then reset mid-flight.
	at(e, e.Now()+Microsecond, func() { t.Error("event survived Reset") })
	queued := at(e, e.Now()+2*Microsecond, func() { t.Error("event survived Reset") })
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now = %v pending = %d, want 0 and 0", e.Now(), e.Pending())
	}
	queued.Cancel() // stale handle after Reset: must be a no-op

	// The recycled shells must feed the free list: the first schedule
	// after Reset reuses one instead of allocating.
	if reused := after(e, Microsecond, func() {}); reused != queued {
		t.Error("event queued at Reset was not recycled onto the free list")
	}
	e.Reset()

	warm := run(e)
	if len(warm) != len(fresh) {
		t.Fatalf("reset engine fired %d events, fresh fired %d", len(warm), len(fresh))
	}
	for i := range fresh {
		if warm[i] != fresh[i] {
			t.Fatalf("reset engine order %v, fresh order %v", warm, fresh)
		}
	}
	if e.Now() != 3*Microsecond {
		t.Errorf("reset engine finished at %v, want 3us", e.Now())
	}
}

// TestEngineAtFuncOrdering pins the callback's argument: events with
// different callbacks interleave in strict (due, seq) order and each
// receives its own argument.
func TestEngineAtFuncOrdering(t *testing.T) {
	e := New()
	var got []int
	record := func(x any) { got = append(got, x.(int)) }
	e.AtFunc(2*Microsecond, record, 2)
	at(e, Microsecond, func() { got = append(got, 1) })
	e.AtFunc(Microsecond, record, 10) // same instant as the closure: insertion order
	e.AfterFunc(3*Microsecond, record, 3)
	e.Run()
	want := []int{1, 10, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestEngineAtFuncCancel verifies a cancelled event's shell is recycled
// with its callback and argument cleared.
func TestEngineAtFuncCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.AfterFunc(Microsecond, func(any) { ran = true }, nil)
	ev.Cancel()
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled AtFunc event ran")
	}
	if ev.arg != nil || ev.afn != nil {
		t.Fatal("recycled event retained its pre-bound callback state")
	}
}

// TestEngineHeapStress cross-checks the far heap against a reference
// ordering: many events with colliding due times (1 us apart, so most
// instants wait in the 4-ary heap) plus interleaved cancels,
// heap-interior ones included, must still fire in exact (due, seq)
// order.
func TestEngineHeapStress(t *testing.T) {
	e := New()
	const n = 500
	type fired struct {
		due Time
		seq int
	}
	var got []fired
	evs := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		i := i
		due := Time(i%17) * Microsecond // heavy due-time collisions
		evs = append(evs, at(e, due, func() { got = append(got, fired{due, i}) }))
	}
	// Cancel a scattering of events, including heap-interior ones.
	cancelled := map[int]bool{}
	for i := 3; i < n; i += 37 {
		evs[i].Cancel()
		cancelled[i] = true
	}
	e.Run()
	want := make([]fired, 0, n)
	for due := 0; due < 17; due++ {
		for i := 0; i < n; i++ {
			if i%17 == due && !cancelled[i] {
				want = append(want, fired{Time(due) * Microsecond, i})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: fired %+v, want %+v", i, got[i], want[i])
		}
	}
}

// stepper is the allocation-test harness: a pre-bound method value
// rescheduling itself through the AfterFunc path.
type stepper struct {
	e  *Engine
	fn func(any)
}

func (s *stepper) tick(any) { s.e.AfterFunc(Nanosecond, s.fn, s) }

// TestEngineSteadyStateZeroAlloc pins the zero-allocation contract of
// the schedule/fire steady state: once the free list is warm, AfterFunc
// scheduling plus Step firing allocates nothing.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	s := &stepper{e: e}
	s.fn = s.tick
	e.AfterFunc(Nanosecond, s.fn, s)
	for i := 0; i < 64; i++ { // warm the free list and bucket backing
		e.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("steady-state schedule/fire allocates %.2f allocs/op, want 0", avg)
	}
}

func TestTimeString(t *testing.T) {
	if got := (2500 * Nanosecond).String(); got != "2.500us" {
		t.Errorf("String() = %q, want 2.500us", got)
	}
	if got := Never.String(); got != "never" {
		t.Errorf("Never.String() = %q", got)
	}
}
