package machine

import (
	"math"
	"testing"

	"memthrottle/internal/sim"
)

func approx(t *testing.T, got, want sim.Time, what string) {
	t.Helper()
	if math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := I7860().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Cores: 0, SMTWays: 1}).Validate(); err == nil {
		t.Error("0 cores accepted")
	}
	if err := (Config{Cores: 4, SMTWays: 0}).Validate(); err == nil {
		t.Error("0 SMT ways accepted")
	}
}

func TestHardwareThreads(t *testing.T) {
	if got := I7860().HardwareThreads(); got != 4 {
		t.Errorf("i7 threads = %d, want 4", got)
	}
	if got := I7860().WithSMT(2).HardwareThreads(); got != 8 {
		t.Errorf("i7 SMT threads = %d, want 8", got)
	}
}

func TestSingleComputeRunsAtFullRate(t *testing.T) {
	eng := sim.New()
	m := New(eng, I7860())
	var end sim.Time
	m.Core(0).StartCompute(10*sim.Microsecond, func() { end = eng.Now() })
	eng.Run()
	approx(t, end, 10*sim.Microsecond, "solo compute")
}

func TestCoScheduledComputeHalves(t *testing.T) {
	// Two equal compute tasks on one core (SMT) each take 2x solo.
	eng := sim.New()
	m := New(eng, I7860().WithSMT(2))
	var endA, endB sim.Time
	m.Core(0).StartCompute(10*sim.Microsecond, func() { endA = eng.Now() })
	m.Core(0).StartCompute(10*sim.Microsecond, func() { endB = eng.Now() })
	eng.Run()
	approx(t, endA, 20*sim.Microsecond, "SMT compute A")
	approx(t, endB, 20*sim.Microsecond, "SMT compute B")
}

func TestDifferentCoresDoNotInterfere(t *testing.T) {
	eng := sim.New()
	m := New(eng, I7860())
	var endA, endB sim.Time
	m.Core(0).StartCompute(10*sim.Microsecond, func() { endA = eng.Now() })
	m.Core(1).StartCompute(10*sim.Microsecond, func() { endB = eng.Now() })
	eng.Run()
	approx(t, endA, 10*sim.Microsecond, "core 0")
	approx(t, endB, 10*sim.Microsecond, "core 1")
}

func TestStaggeredSMTSharing(t *testing.T) {
	// B joins when A is half done: A = 5us solo + 10us shared = 15us.
	// B then runs 5us shared... B: joins at 5us with 10us work; shares
	// until A ends at 15us (5us progress), finishes alone at 20us.
	eng := sim.New()
	m := New(eng, I7860().WithSMT(2))
	var endA, endB sim.Time
	m.Core(0).StartCompute(10*sim.Microsecond, func() { endA = eng.Now() })
	eng.AtFunc(5*sim.Microsecond, func(any) {
		m.Core(0).StartCompute(10*sim.Microsecond, func() { endB = eng.Now() })
	}, nil)
	eng.Run()
	approx(t, endA, 15*sim.Microsecond, "staggered A")
	approx(t, endB, 20*sim.Microsecond, "staggered B")
}

func TestBusyTimeAccounting(t *testing.T) {
	eng := sim.New()
	m := New(eng, I7860())
	c := m.Core(0)
	c.StartCompute(10*sim.Microsecond, nil)
	eng.Run()
	// Idle gap, then more work.
	eng.AtFunc(20*sim.Microsecond, func(any) { c.StartCompute(5*sim.Microsecond, nil) }, nil)
	eng.Run()
	approx(t, c.BusyTime(), 15*sim.Microsecond, "busy time")
}

func TestBusyTimeWithSMTCountsOnce(t *testing.T) {
	// Two co-running tasks: the core is busy 20us, not 40.
	eng := sim.New()
	m := New(eng, I7860().WithSMT(2))
	c := m.Core(0)
	c.StartCompute(10*sim.Microsecond, nil)
	c.StartCompute(10*sim.Microsecond, nil)
	eng.Run()
	approx(t, c.BusyTime(), 20*sim.Microsecond, "SMT busy time")
}

func TestStartComputePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng := sim.New()
	New(eng, I7860()).Core(0).StartCompute(0, nil)
}

// TestExecActiveFlag: an execution counts as active on its core from
// its start until its completion callback.
func TestExecActiveFlag(t *testing.T) {
	eng := sim.New()
	c := New(eng, I7860()).Core(0)
	c.StartCompute(sim.Microsecond, func() {
		if c.ActiveCompute() != 0 {
			t.Error("exec active in its completion callback")
		}
	})
	if c.ActiveCompute() != 1 {
		t.Error("exec not active after start")
	}
	eng.Run()
	if c.ActiveCompute() != 0 {
		t.Error("exec active after completion")
	}
}

// TestStartComputeFuncRecyclesShells pins the start path as simsched
// and the repository benchmark drive it: a chain of executions, each
// started from its predecessor's completion callback, allocates nothing
// through the core once the shells exist — through StartComputeFunc or
// through StartCompute's closure. (The recycling itself is sim.Shared's
// and is tested there.)
func TestStartComputeFuncRecyclesShells(t *testing.T) {
	eng := sim.New()
	m := New(eng, I7860().WithSMT(2))
	c := m.Core(0)
	left := 0
	var next func(any)
	next = func(arg any) {
		if left > 0 {
			left--
			c.StartComputeFunc(sim.Microsecond, next, arg)
		}
	}
	var closure func()
	closure = func() {
		if left > 0 {
			left--
			c.StartCompute(sim.Microsecond, closure)
		}
	}
	for _, start := range []struct {
		name string
		next func()
	}{{"StartComputeFunc", func() { next(c) }}, {"StartCompute", closure}} {
		cycle := func() {
			left = 64
			start.next()
			start.next()
			eng.Run()
		}
		eng.Reset()
		m.Reset()
		cycle()
		if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
			t.Errorf("chain of %s executions allocates %.2f allocs/op, want 0", start.name, avg)
		}
		approx(t, eng.Now(), 52*64*sim.Microsecond, "52 cycles of two co-scheduled chains of 32")
	}
}

// TestMachineResetMatchesNew pins that Reset reaches every core: a
// reset machine on a reset engine completes a scenario at the instants
// a new one does, with busy time from zero on each core — even when the
// reset interrupts an execution in flight.
func TestMachineResetMatchesNew(t *testing.T) {
	scenario := func(eng *sim.Engine, m *Machine) (ends []sim.Time) {
		done := func(any) { ends = append(ends, eng.Now()) }
		m.Core(0).StartComputeFunc(3*sim.Microsecond, done, nil)
		m.Core(0).StartComputeFunc(sim.Microsecond, done, nil)
		m.Core(1).StartComputeFunc(2*sim.Microsecond, done, nil)
		eng.Run()
		return ends
	}
	eng := sim.NewWheel()
	m := New(eng, I7860().WithSMT(2))
	scenario(eng, m)
	m.Core(1).StartCompute(sim.Millisecond, nil) // still running at the reset
	eng.RunUntil(eng.Now() + sim.Microsecond)
	eng.Reset()
	m.Reset()
	for _, c := range m.Cores() {
		if c.ActiveCompute() != 0 || c.BusyTime() != 0 {
			t.Fatalf("after Reset: core %d has %d active, busy %v", c.ID(), c.ActiveCompute(), c.BusyTime())
		}
	}
	got := scenario(eng, m)

	fresh := sim.NewWheel()
	want := scenario(fresh, New(fresh, I7860().WithSMT(2)))
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("completions: %d after reset, %d new, want 3 each", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset machine completes at %v, new machine at %v", got, want)
		}
	}
	approx(t, m.Core(0).BusyTime(), 4*sim.Microsecond, "core 0 busy time after reset")
	approx(t, m.Core(1).BusyTime(), 2*sim.Microsecond, "core 1 busy time after reset")
}

func TestCompletionCanChainWork(t *testing.T) {
	eng := sim.New()
	m := New(eng, I7860())
	count := 0
	var loop func()
	loop = func() {
		count++
		if count < 3 {
			m.Core(0).StartCompute(sim.Microsecond, loop)
		}
	}
	m.Core(0).StartCompute(sim.Microsecond, loop)
	end := eng.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	approx(t, end, 3*sim.Microsecond, "chained work")
}
