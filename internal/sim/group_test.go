package sim

import "testing"

// hop is one trace entry of the group test models.
type hop struct {
	chain, step int
	at          Time
}

// chainModel starts chains hops across the given engines: chain i
// begins on engine i%len(engines) and each callback reschedules onto
// the next engine with a small (sometimes zero) delay, so the trace is
// full of same-instant ties that cross engine boundaries. Passing the
// same engine D times yields the single-engine reference.
func chainModel(engines []*Engine, unit Time, chains, hops int, trace *[]hop) {
	for c := 0; c < chains; c++ {
		c := c
		var step func(int, Time)
		step = func(n int, at Time) {
			e := engines[(c+n)%len(engines)]
			e.At(at, func() {
				*trace = append(*trace, hop{c, n, e.Now()})
				if n+1 < hops {
					// Delay pattern includes 0 — a same-instant hop onto
					// a different engine, the hardest tie to preserve.
					d := Time((c+n)%3) * unit
					step(n+1, e.Now()+d)
				}
			})
		}
		step(0, Time(c)*unit)
	}
}

// TestGroupMergeMatchesSingle pins the group's whole reason to exist:
// the same model sharded across group engines produces a trace
// byte-identical to one engine running everything, including
// same-instant cross-engine tie-breaks.
func TestGroupMergeMatchesSingle(t *testing.T) {
	single := func(unit Time) []hop {
		e := New()
		var trace []hop
		chainModel([]*Engine{e, e, e}, unit, 7, 40, &trace)
		e.Run()
		return trace
	}
	grouped := func(unit Time, domains int) []hop {
		engines := make([]*Engine, domains)
		for i := range engines {
			engines[i] = New()
		}
		g := NewGroup(engines...)
		var trace []hop
		chainModel(engines, unit, 7, 40, &trace)
		g.Run()
		return trace
	}
	// The same hops at two scales: nanoseconds apart they wait in wheel
	// slots, tens of microseconds apart in the far heaps.
	for name, unit := range map[string]Time{"heap": 10 * Microsecond, "wheel": Nanosecond} {
		t.Run(name, func(t *testing.T) {
			ref := single(unit)
			if len(ref) != 7*40 {
				t.Fatalf("reference fired %d hops, want %d", len(ref), 7*40)
			}
			for _, domains := range []int{1, 2, 3} {
				got := grouped(unit, domains)
				if len(got) != len(ref) {
					t.Fatalf("domains=%d: fired %d hops, want %d", domains, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("domains=%d: hop %d = %+v, single-engine ref %+v", domains, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestGroupMergeSyncsClocks verifies every member engine's clock tracks
// the global fire instant, so relative scheduling from cross-engine
// callbacks resolves correctly.
func TestGroupMergeSyncsClocks(t *testing.T) {
	a, b := NewWheel(), NewWheel()
	g := NewGroup(a, b)
	var bAt Time
	a.At(5*Microsecond, func() {
		// b's clock must already be at 5us: After on b from a's
		// callback lands at 6us, not 1us.
		b.After(Microsecond, func() { bAt = b.Now() })
	})
	g.Run()
	want := 5*Microsecond + Microsecond // exact float sum, not 6e-6
	if bAt != want {
		t.Fatalf("cross-engine After fired at %v, want %v", bAt, want)
	}
	if a.Now() != want || b.Now() != want {
		t.Fatalf("final clocks a=%v b=%v, want both %v", a.Now(), b.Now(), want)
	}
}

// TestGroupInsertBehindDrainedBucket: Run asks every engine for its
// next due time, which drains b's next slot into its firing bucket and
// moves b's cursor past it, long before b's turn. When a's callback
// then schedules onto b at an earlier time, the event is behind b's
// cursor; it must be sorted in ahead of the drained one.
func TestGroupInsertBehindDrainedBucket(t *testing.T) {
	a, b := New(), New()
	g := NewGroup(a, b)
	var got []int
	drained := b.At(Microsecond, func() { got = append(got, 2) })
	a.At(100*Nanosecond, func() {
		got = append(got, 0)
		if drained.loc != locCur {
			t.Errorf("b's pending event loc = %d, want the firing bucket", drained.loc)
		}
		ev := b.AfterFunc(50*Nanosecond, func(any) { got = append(got, 1) }, nil)
		if ev.loc != locCur {
			t.Errorf("cross-engine event loc = %d, want the firing bucket", ev.loc)
		}
	})
	g.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("fired %v, want [0 1 2]", got)
	}
}

// TestGroupContracts pins the constructor panics.
func TestGroupContracts(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewGroup on used engine", func() {
		e := New()
		e.After(Nanosecond, func() {})
		NewGroup(e, New())
	})
}

// TestGroupStop verifies Stop halts a run with events remaining.
func TestGroupStop(t *testing.T) {
	a, b := NewWheel(), NewWheel()
	g := NewGroup(a, b)
	fired := 0
	for i := 1; i <= 10; i++ {
		e := a
		if i%2 == 0 {
			e = b
		}
		e.At(Time(i)*Microsecond, func() {
			fired++
			if fired == 4 {
				g.Stop()
			}
		})
	}
	g.Run()
	if fired != 4 {
		t.Fatalf("fired = %d after Stop, want 4", fired)
	}
	if g.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", g.Pending())
	}
}
