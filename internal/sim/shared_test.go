package sim

import (
	"math"
	"slices"
	"testing"
)

// The mechanism tests of the one processor-sharing server. What
// contend.Pool and machine.Core add on top — the Tml + k*Tql law in
// bytes, SMT sharing in solo-seconds, their argument panics — is tested
// in their packages; simsched's fluid_parent.json pins both, bit for
// bit, to the two implementations this server replaced.

// unit is a server whose job of amount x alone takes x seconds and n
// unit-weight jobs each run at 1/n: machine.Core's parameters.
func unit(eng *Engine) *Shared { return NewShared(eng, 0, 1) }

func TestSharedRateAndBusyTime(t *testing.T) {
	// Time per unit of work is base + slope*W: 2 + 0.5*W here.
	eng := New()
	s := NewShared(eng, 2, 0.5)
	var endA, endB Time
	s.Start(10, 1, func() { endA = eng.Now() })
	s.Start(20, 0.5, func() { endB = eng.Now() })
	eng.Run()
	// Shared until A ends: W = 1.5, 2.75 s a unit. Then B alone, W = 0.5.
	if want := Time(10 * 2.75); math.Abs(float64(endA-want)) > 1e-9 {
		t.Errorf("A ends at %v, want %v", float64(endA), float64(want))
	}
	if want := Time(10*2.75 + 10*2.25); math.Abs(float64(endB-want)) > 1e-9 {
		t.Errorf("B ends at %v, want %v", float64(endB), float64(want))
	}
	if s.Started() != 2 || s.Completed() != 2 || s.Count() != 0 || s.Weight() != 0 {
		t.Errorf("after the run: started %d completed %d count %d weight %g", s.Started(), s.Completed(), s.Count(), s.Weight())
	}
	// An idle gap is not busy time; two jobs sharing count once.
	at(eng, 100, func() { s.Start(1, 1, nil); s.Start(1, 1, nil) })
	eng.Run()
	if want := endB + (2 + 0.5*2); math.Abs(float64(s.BusyTime()-want)) > 1e-9 {
		t.Errorf("busy time %v, want %v", float64(s.BusyTime()), float64(want))
	}
}

// TestSharedSteadyStateAllocs pins the slice-based job tracking: once
// the shells exist, a start/fire cycle allocates nothing through either
// entry point — the due/firing scratch, the event shells, the job
// shells and the pre-bound fire callback are all reused, and Start's
// closure travels as the argument of a shared callback — and neither
// does a closed loop of starts, each from its predecessor's completion
// callback.
func TestSharedSteadyStateAllocs(t *testing.T) {
	eng := New()
	s := unit(eng)
	done := func() {}
	for _, c := range []struct {
		name  string
		start func()
	}{
		{"Start without a callback", func() { s.Start(1e-6, 1, nil) }},
		{"Start with a closure", func() { s.Start(1e-6, 1, done) }},
		{"StartFunc", func() { s.StartFunc(1e-6, 1, nil, nil) }},
	} {
		cycle := func() {
			c.start()
			eng.Run()
		}
		cycle() // warm scratch slices and the free lists
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("steady-state %s/fire cycle allocates %.2f allocs/op, want 0", c.name, avg)
		}
	}

	left := 0
	var next func(any)
	next = func(arg any) {
		if left > 0 {
			left--
			s.StartFunc(1e-6, 0.5, next, arg)
		}
	}
	loop := func() {
		left = 64
		for i := 0; i < 4; i++ {
			next(s)
		}
		eng.Run()
	}
	loop()
	if avg := testing.AllocsPerRun(50, loop); avg != 0 {
		t.Errorf("closed loop of StartFunc jobs allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSharedOneStartPath pins that Start is StartFunc under a closure:
// the same mix of jobs completes at the same instants in the same order
// either way.
func TestSharedOneStartPath(t *testing.T) {
	run := func(pooled bool) (order []int, ends []Time) {
		eng := New()
		s := NewShared(eng, 1e-9, 0.4e-9)
		done := func(arg any) {
			order = append(order, arg.(int))
			ends = append(ends, eng.Now())
		}
		for i, amount := range []float64{300, 100, 200, 100} {
			i := i
			if pooled {
				s.StartFunc(amount, 1, done, i)
			} else {
				s.Start(amount, 1, func() { done(i) })
			}
		}
		eng.Run()
		return order, ends
	}
	o1, e1 := run(false)
	o2, e2 := run(true)
	if len(o1) != 4 || len(o2) != 4 {
		t.Fatalf("completions: %v and %v, want four each", o1, o2)
	}
	for i := range o1 {
		if o1[i] != o2[i] || e1[i] != e2[i] {
			t.Fatalf("Start completes %v at %v, StartFunc %v at %v", o1, e1, o2, e2)
		}
	}
	if want := []int{1, 3, 2, 0}; !slices.Equal(o1, want) {
		t.Errorf("completion order %v, want %v (ties in start order)", o1, want)
	}
}

// TestSharedDueSetFrozen pins the completion event: the jobs it will
// complete are chosen when it is scheduled — everything within a
// relative 1e-12 of the least remaining work — and all of them complete
// in it, in start order, even when an earlier callback of the event
// starts new work; a job outside the tolerance gets an event of its
// own.
func TestSharedDueSetFrozen(t *testing.T) {
	eng := New()
	s := unit(eng)
	type end struct {
		id int
		at Time
	}
	var ends []end
	var done func(id int) func()
	done = func(id int) func() {
		return func() {
			ends = append(ends, end{id, eng.Now()})
			if id == 0 {
				// The first callback of the event starts work, which may
				// take its shell: the next job of the same event still
				// completes in it, and the new job is not part of it.
				s.Start(1e-9, 1, done(9))
			}
		}
	}
	s.Start(1e-6, 1, done(0))
	s.Start(1e-6*(1+4e-12), 1, done(3)) // outside the tolerance
	s.Start(1e-6*(1+1e-15), 1, done(2)) // inside it
	eng.Run()
	if len(ends) != 4 {
		t.Fatalf("%d completions, want 4: %v", len(ends), ends)
	}
	for i, id := range []int{0, 2, 3, 9} {
		if ends[i].id != id {
			t.Fatalf("completion order %v, want ids 0 2 3 9", ends)
		}
	}
	if ends[0].at != ends[1].at {
		t.Errorf("jobs inside the tolerance complete at %v and %v, want one instant", float64(ends[0].at), float64(ends[1].at))
	}
	if !(ends[2].at > ends[1].at) {
		t.Errorf("job outside the tolerance completes at %v, not after %v", float64(ends[2].at), float64(ends[1].at))
	}
	if s.Completed() != 4 || s.Count() != 0 {
		t.Errorf("completed %d, %d still active", s.Completed(), s.Count())
	}
}

// TestSharedResetMatchesNew pins that a reset server on a reset engine
// behaves as a new server on a new engine: same completion instants,
// same order among simultaneous completions, counters and busy time
// from zero, the new coefficients in force — even when the reset
// interrupts jobs in flight, whose shells it recycles.
func TestSharedResetMatchesNew(t *testing.T) {
	scenario := func(eng *Engine, s *Shared) (ends []Time, order []int) {
		done := func(arg any) {
			ends = append(ends, eng.Now())
			order = append(order, arg.(int))
		}
		for i, amount := range []float64{4096, 1024, 1024, 2048} {
			s.StartFunc(amount, 1, done, i)
		}
		after(eng, Microsecond, func() { s.StartFunc(512, 0.5, done, 4) })
		eng.Run()
		return ends, order
	}

	eng := NewWheel()
	s := NewShared(eng, 1e-9, 0.4e-9)
	scenario(eng, s)
	// Two jobs still in flight at the reset.
	s.Start(1<<20, 1, func() { t.Error("a job dropped by Reset completed") })
	s.StartFunc(1<<20, 1, func(any) { t.Error("a job dropped by Reset completed") }, nil)
	eng.RunUntil(eng.Now() + Microsecond)
	free := len(s.free)
	eng.Reset()
	s.Reset(2e-9, 1e-9)
	if s.Count() != 0 || s.Weight() != 0 || s.Started() != 0 || s.Completed() != 0 || s.BusyTime() != 0 {
		t.Fatalf("after Reset: count %d, weight %g, started %d, completed %d, busy %v",
			s.Count(), s.Weight(), s.Started(), s.Completed(), s.BusyTime())
	}
	if len(s.free) != free+2 {
		t.Errorf("Reset recycled %d of the 2 dropped job shells", len(s.free)-free)
	}
	gotEnds, gotOrder := scenario(eng, s)

	fresh := NewWheel()
	f := NewShared(fresh, 2e-9, 1e-9)
	wantEnds, wantOrder := scenario(fresh, f)
	if len(gotEnds) != 5 || len(wantEnds) != 5 {
		t.Fatalf("completions: %d after reset, %d new, want 5 each", len(gotEnds), len(wantEnds))
	}
	for i := range wantEnds {
		if gotEnds[i] != wantEnds[i] || gotOrder[i] != wantOrder[i] {
			t.Fatalf("reset server completes %v at %v, new server %v at %v", gotOrder, gotEnds, wantOrder, wantEnds)
		}
	}
	if s.Completed() != 5 || s.BusyTime() != f.BusyTime() {
		t.Errorf("completed %d busy %v after the scenario, new server 5 and %v", s.Completed(), s.BusyTime(), f.BusyTime())
	}
}
