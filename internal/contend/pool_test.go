package contend

import (
	"math"
	"testing"
	"testing/quick"

	"memthrottle/internal/mem"
	"memthrottle/internal/sim"
)

// testParams: 1 ns/byte contention-free, 0.4 ns/byte per concurrent
// actor — the ~0.4 Tql/Tml regime the calibration lands in.
func testParams() Params {
	return Params{TmlPerByte: 1e-9, TqlPerByte: 0.4e-9}
}

func approxTime(t *testing.T, got, want sim.Time, relTol float64, what string) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %v, want 0", what, got)
		}
		return
	}
	if rel := math.Abs(float64(got-want)) / math.Abs(float64(want)); rel > relTol {
		t.Errorf("%s = %v, want %v (rel err %.2g)", what, got, want, rel)
	}
}

// The mechanism under the pool — piecewise integration, the frozen due
// set, shell recycling, Reset — is sim.Shared's and is tested there
// (internal/sim/shared_test.go). The tests here hold what is the pool's
// own: the Tml + a*Tql law in bytes, fractional weights, the argument
// panics, and that the wrapper adds nothing to the hot path.

// TestPoolSteadyStateZeroAlloc pins the wrapper's cost at zero: once
// the shells exist, a full start/fire cycle through the pool allocates
// nothing, whether it starts with a closure — Start, the entry point
// the repository benchmark probes — or without a callback.
func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.New()
	p := NewPool(eng, testParams())
	done := func() {}
	for _, c := range []struct {
		name string
		done func()
	}{{"a closure", done}, {"no callback", nil}} {
		cycle := func() {
			p.Start(1024, 1, c.done)
			eng.Run()
		}
		cycle() // warm scratch slices and the free lists
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Errorf("steady-state start/fire cycle with %s allocates %.2f allocs/op, want 0", c.name, avg)
		}
	}
}

// TestStartFuncRecyclesShells pins the handle-free start path as
// simsched drives it: a closed loop of transfers, each started from its
// predecessor's completion callback, allocates nothing through the pool
// once the shells exist.
func TestStartFuncRecyclesShells(t *testing.T) {
	eng := sim.New()
	p := NewPool(eng, testParams())
	left := 0
	var next func(any)
	next = func(arg any) {
		if left > 0 {
			left--
			p.StartFunc(1024, 1, next, arg)
		}
	}
	cycle := func() {
		left = 64
		for i := 0; i < 4; i++ {
			next(p)
		}
		eng.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("closed loop of StartFunc transfers allocates %.2f allocs/op, want 0", avg)
	}
	if p.Completed() != 52*64 {
		t.Errorf("completed = %d, want %d", p.Completed(), 52*64)
	}
}

// TestPoolResetMatchesNew pins that Reset installs the new coefficients:
// a pool reset to other params completes a scenario at the instants a
// new pool with those params does, reports them, and counts from zero;
// invalid params panic as in NewPool.
func TestPoolResetMatchesNew(t *testing.T) {
	scenario := func(eng *sim.Engine, p *Pool) (ends []sim.Time) {
		done := func(any) { ends = append(ends, eng.Now()) }
		for _, bytes := range []float64{4096, 1024, 1024, 2048} {
			p.StartFunc(bytes, 1, done, nil)
		}
		eng.AfterFunc(sim.Microsecond, func(any) { p.StartFunc(512, 0.5, done, nil) }, nil)
		eng.Run()
		return ends
	}
	slow := Params{TmlPerByte: 2e-9, TqlPerByte: 1e-9}

	eng := sim.NewWheel()
	p := NewPool(eng, testParams())
	scenario(eng, p)
	eng.Reset()
	p.Reset(slow)
	if p.Params() != slow || p.Started() != 0 || p.Completed() != 0 {
		t.Fatalf("after Reset: params %+v, started %d, completed %d", p.Params(), p.Started(), p.Completed())
	}
	got := scenario(eng, p)

	fresh := sim.NewWheel()
	want := scenario(fresh, NewPool(fresh, slow))
	if len(got) != 5 || len(want) != 5 {
		t.Fatalf("completions: %d after reset, %d new, want 5 each", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset pool completes at %v, new pool at %v", got, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Reset accepted bad params")
		}
	}()
	p.Reset(Params{})
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{TmlPerByte: 0, TqlPerByte: 1}).Validate(); err == nil {
		t.Error("zero Tml accepted")
	}
	if err := (Params{TmlPerByte: 1, TqlPerByte: -1}).Validate(); err == nil {
		t.Error("negative Tql accepted")
	}
}

func TestTaskTime(t *testing.T) {
	p := testParams()
	// 1000 bytes at concurrency 1: 1000 * 1.4 ns.
	approxTime(t, p.TaskTime(1000, 1), sim.Time(1400e-9), 1e-12, "TaskTime")
}

func TestSingleActorMatchesLaw(t *testing.T) {
	eng := sim.New()
	p := NewPool(eng, testParams())
	var end sim.Time
	p.Start(1000, 1, func() { end = eng.Now() })
	eng.Run()
	approxTime(t, end, p.Params().TaskTime(1000, 1), 1e-9, "single actor")
	if p.Completed() != 1 || p.Started() != 1 {
		t.Errorf("counters: started=%d completed=%d", p.Started(), p.Completed())
	}
}

func TestKSimultaneousActorsMatchLaw(t *testing.T) {
	for k := 1; k <= 8; k++ {
		eng := sim.New()
		p := NewPool(eng, testParams())
		var ends []sim.Time
		for i := 0; i < k; i++ {
			p.Start(1000, 1, func() { ends = append(ends, eng.Now()) })
		}
		eng.Run()
		want := p.Params().TaskTime(1000, float64(k))
		if len(ends) != k {
			t.Fatalf("k=%d: %d completions", k, len(ends))
		}
		for _, e := range ends {
			approxTime(t, e, want, 1e-9, "simultaneous actor")
		}
	}
}

func TestStaggeredArrivalIntegratesPiecewise(t *testing.T) {
	// Actor A starts alone; actor B joins when A is half done.
	// A's first half runs at concurrency 1, second half at 2.
	p := testParams()
	eng := sim.New()
	pool := NewPool(eng, p)
	const F = 1000.0
	half := sim.Time(F / 2 * (p.TmlPerByte + p.TqlPerByte))
	var endA, endB sim.Time
	pool.Start(F, 1, func() { endA = eng.Now() })
	eng.AtFunc(half, func(any) { pool.Start(F, 1, func() { endB = eng.Now() }) }, nil)
	eng.Run()

	perByte1 := p.TmlPerByte + p.TqlPerByte
	perByte2 := p.TmlPerByte + 2*p.TqlPerByte
	wantA := half + sim.Time(F/2*perByte2)
	approxTime(t, endA, wantA, 1e-9, "staggered A")
	// B: runs at concurrency 2 until A finishes, then alone.
	bytesBWhileShared := float64(wantA-half) / perByte2
	wantB := wantA + sim.Time((F-bytesBWhileShared)*perByte1)
	approxTime(t, endB, wantB, 1e-9, "staggered B")
}

func TestWeightedActorRaisesConcurrencyFractionally(t *testing.T) {
	p := testParams()
	// A full actor plus a 0.25-weight actor: the full actor sees
	// concurrency 1.25.
	eng := sim.New()
	pool := NewPool(eng, p)
	var endFull sim.Time
	pool.Start(1000, 1, func() { endFull = eng.Now() })
	pool.Start(1e6, 0.25, nil) // long-lived background miss traffic
	eng.Run()
	want := p.TaskTime(1000, 1.25)
	approxTime(t, endFull, want, 1e-9, "weighted concurrency")
}

// TestRemainingReflectsProgress: the work an actor has left when the
// concurrency changes is what its progress so far left, and only that
// runs at the new rate. A's first 300 bytes run alone; a 0.5-weight
// actor joins, and A's remaining 700 run at concurrency 1.5.
func TestRemainingReflectsProgress(t *testing.T) {
	p := testParams()
	eng := sim.New()
	pool := NewPool(eng, p)
	var endA sim.Time
	pool.Start(1000, 1, func() { endA = eng.Now() })
	join := sim.Time(300 * (p.TmlPerByte + p.TqlPerByte))
	eng.AtFunc(join, func(any) { pool.Start(1e6, 0.5, nil) }, nil)
	eng.Run()
	approxTime(t, endA, join+p.TaskTime(700, 1.5), 1e-9, "A after the join")
}

func TestStartPanics(t *testing.T) {
	eng := sim.New()
	pool := NewPool(eng, testParams())
	for _, fn := range []func(){
		func() { pool.Start(0, 1, nil) },
		func() { pool.Start(100, 0, nil) },
		func() { pool.Start(100, 1.5, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Start accepted")
				}
			}()
			fn()
		}()
	}
}

func TestNewPoolPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad params accepted")
		}
	}()
	NewPool(sim.New(), Params{})
}

func TestDoneCallbackMayStartNewActor(t *testing.T) {
	// Closed-loop usage: completion immediately starts the next task.
	p := testParams()
	eng := sim.New()
	pool := NewPool(eng, p)
	count := 0
	var loop func()
	loop = func() {
		count++
		if count < 5 {
			pool.Start(100, 1, loop)
		}
	}
	pool.Start(100, 1, loop)
	end := eng.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	approxTime(t, end, sim.Time(5*100*(p.TmlPerByte+p.TqlPerByte)), 1e-9, "closed loop")
}

// Property: completion order matches start order for identical actors
// started at strictly increasing times, and every actor completes.
func TestFIFOCompletionProperty(t *testing.T) {
	prop := func(gapsRaw []uint8) bool {
		if len(gapsRaw) == 0 || len(gapsRaw) > 20 {
			return true
		}
		eng := sim.New()
		pool := NewPool(eng, testParams())
		var order []int
		at := sim.Time(0)
		for i, g := range gapsRaw {
			at += sim.Time(g+1) * sim.Nanosecond
			i := i
			eng.AtFunc(at, func(any) {
				pool.Start(500, 1, func() { order = append(order, i) })
			}, nil)
		}
		eng.Run()
		if len(order) != len(gapsRaw) {
			return false
		}
		for i := range order {
			if order[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Cross-validation: the fluid model parameterised by the DRAM
// calibration reproduces the request-level simulator's steady-state
// task times within tolerance for every k. This is the load-bearing
// link between the two resolutions.
func TestCrossValidationAgainstRequestLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	const footprint = 512 * 1024
	cal, err := mem.Calibrate(mem.DDR3_1066(), 4, 6, footprint)
	if err != nil {
		t.Fatal(err)
	}
	params := FromCalibration(cal)
	for k := 1; k <= 4; k++ {
		fluid := params.TaskTime(footprint, float64(k))
		measured := cal.Tm[k-1]
		if rel := math.Abs(float64(fluid-measured)) / float64(measured); rel > 0.15 {
			t.Errorf("k=%d: fluid %v vs request-level %v (rel err %.1f%%)",
				k, fluid, measured, 100*rel)
		}
	}
}
