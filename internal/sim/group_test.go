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
func chainModel(engines []*Engine, chains, hops int, trace *[]hop) {
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
					d := Time((c+n)%3) * Nanosecond
					step(n+1, e.Now()+d)
				}
			})
		}
		step(0, Time(c)*Nanosecond)
	}
}

// TestGroupMergeMatchesSingle pins the group's whole reason to exist:
// the same model sharded across group engines produces a trace
// byte-identical to one engine running everything, including
// same-instant cross-engine tie-breaks.
func TestGroupMergeMatchesSingle(t *testing.T) {
	single := func(mk func() *Engine) []hop {
		e := mk()
		var trace []hop
		chainModel([]*Engine{e, e, e}, 7, 40, &trace)
		e.Run()
		return trace
	}
	grouped := func(mk func() *Engine, domains int) []hop {
		engines := make([]*Engine, domains)
		for i := range engines {
			engines[i] = mk()
		}
		g := NewGroup(engines...)
		var trace []hop
		chainModel(engines, 7, 40, &trace)
		g.Run()
		return trace
	}
	for name, mk := range map[string]func() *Engine{"heap": New, "wheel": NewWheel} {
		t.Run(name, func(t *testing.T) {
			ref := single(mk)
			if len(ref) != 7*40 {
				t.Fatalf("reference fired %d hops, want %d", len(ref), 7*40)
			}
			for _, domains := range []int{1, 2, 3} {
				got := grouped(mk, domains)
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
