package host

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memthrottle/internal/core"
)

// fixedDecision is a test policy that returns the same decision at
// every window boundary; with W = 1 the limits take effect after the
// first completed pair.
type fixedDecision struct {
	d core.Decision
}

func (p *fixedDecision) Name() string                           { return "test-fixed" }
func (p *fixedDecision) Observe(core.WindowStats) core.Decision { return p.d }

// primeThrottler runs a couple of trivial class-0 pairs through rt so
// the plugged policy observes at least one window and its decision
// (class limits, blacklist bits) is published before the test proper.
func primeThrottler(t *testing.T, rt *Runtime) {
	t.Helper()
	pairs := []Pair{
		{Memory: func() {}, Compute: func() {}},
		{Memory: func() {}, Compute: func() {}},
	}
	if _, err := rt.Run(pairs); err != nil {
		t.Fatalf("priming run: %v", err)
	}
}

func TestThrottlerConfigValidation(t *testing.T) {
	th := core.NewPolicyThrottler(&fixedDecision{}, 1, 4)
	invalid := []struct {
		name string
		cfg  Config
	}{
		{"throttler with MTL", Config{Workers: 4, Throttler: th, MTL: 2}},
		{"throttler with policy", Config{Workers: 4, Throttler: th, Policy: Dynamic, W: 8}},
	}
	for _, c := range invalid {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
	for _, cfg := range []Config{
		{Workers: 4, Throttler: th},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("valid config %+v rejected: %v", cfg, err)
		}
	}

	rt, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bad := []Pair{{Memory: func() {}, Compute: func() {}, Class: core.MaxClasses}}
	if _, err := rt.Run(bad); err == nil {
		t.Error("pair with out-of-range class accepted")
	}
	bad[0].Class = -1
	if _, err := rt.Run(bad); err == nil {
		t.Error("pair with negative class accepted")
	}
}

// TestClassLimitEnforcedInRun pins the batch path's per-class gate:
// once the policy caps class 1 at 2 concurrent memory tasks, the
// observed peak concurrency of class-1 memory tasks never exceeds it,
// and every pair still completes.
func TestClassLimitEnforcedInRun(t *testing.T) {
	const cap = 2
	pol := &fixedDecision{d: core.Decision{
		ClassLimit: []int{0, cap},
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   8,
		Throttler: core.NewPolicyThrottler(pol, 1, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	var live, peak int64
	var pairs []Pair
	for i := 0; i < 24; i++ {
		pairs = append(pairs, Pair{
			Class: 1,
			Memory: func() {
				cur := atomic.AddInt64(&live, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				time.Sleep(500 * time.Microsecond)
				atomic.AddInt64(&live, -1)
			},
			Compute: func() {},
		})
	}
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedPairs != len(pairs) {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, len(pairs))
	}
	if p := atomic.LoadInt64(&peak); p > cap {
		t.Fatalf("class-1 memory concurrency peaked at %d, cap is %d", p, cap)
	}
}

// TestClassCappedScattersInRun pins the batch path's requeue of a
// class-capped scatter: with class 1 capped at one memory task, a
// scatter that finds the class slot held goes back to its domain's
// scatter list and is retried, so every pair completes with each stage
// run once, and class-1 memory-class concurrency — gathers and scatters
// counted together — never passes 1.
func TestClassCappedScattersInRun(t *testing.T) {
	pol := &fixedDecision{d: core.Decision{
		ClassLimit: []int{0, 1},
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   4,
		Throttler: core.NewPolicyThrottler(pol, 1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	// Bodies yield, so a sibling worker takes the next gather while a
	// compute runs, and the compute's scatter then finds the class slot
	// held — on one P as on many.
	yieldingBusy := func() {
		for k := 0; k < 4; k++ {
			busy(5000)
			runtime.Gosched()
		}
	}
	const n = 24
	var live, peak int64
	var runs [3][n]atomic.Int32
	memClass := func(i int, stage int32) func() {
		return func() {
			runs[stage][i].Add(1)
			cur := atomic.AddInt64(&live, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			yieldingBusy()
			atomic.AddInt64(&live, -1)
		}
	}
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{
			Class:   1,
			Memory:  memClass(i, stageMem),
			Compute: func() { runs[stageComp][i].Add(1); yieldingBusy() },
			Scatter: memClass(i, stageScat),
		}
	}
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedPairs != n {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, n)
	}
	for stage := range runs {
		for i := range runs[stage] {
			if got := runs[stage][i].Load(); got != 1 {
				t.Errorf("pair %d %s task ran %d times, want 1", i, stageNames[stage], got)
			}
		}
	}
	if p := atomic.LoadInt64(&peak); p > 1 {
		t.Fatalf("class-1 memory-class concurrency peaked at %d, cap is 1", p)
	}
}

// TestBlacklistShedsAtServeIngress pins the serve path's containment
// half: once the policy demotes class 1, Submit refuses its jobs with
// ErrBlacklisted while class-0 traffic flows untouched.
func TestBlacklistShedsAtServeIngress(t *testing.T) {
	pol := &fixedDecision{d: core.Decision{
		Blacklist:  1 << 1,
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   4,
		Throttler: core.NewPolicyThrottler(pol, 1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	srv, err := rt.Serve(ServeConfig{Queue: 64, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	attacker := Pair{Class: 1, Memory: func() {}, Compute: func() {}}
	for i := 0; i < 5; i++ {
		if err := srv.Submit(attacker); !errors.Is(err, ErrBlacklisted) {
			t.Fatalf("blacklisted submit %d: got %v, want ErrBlacklisted", i, err)
		}
	}
	var done int64
	victim := Pair{Memory: func() {}, Compute: func() { atomic.AddInt64(&done, 1) }}
	for i := 0; i < 20; i++ {
		if err := srv.Submit(victim); err != nil {
			t.Fatalf("victim submit %d: %v", i, err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Blacklisted != 5 {
		t.Errorf("Blacklisted = %d, want 5", st.Blacklisted)
	}
	if st.Completed != 20 || atomic.LoadInt64(&done) != 20 {
		t.Errorf("victim jobs: completed %d, executed %d, want 20", st.Completed, done)
	}
}

// TestServeClassCapCompletes pins the serve path's held-list: jobs of
// a class capped at 1 are parked rather than dropped, serialize on the
// class slot, and all complete.
func TestServeClassCapCompletes(t *testing.T) {
	pol := &fixedDecision{d: core.Decision{
		ClassLimit: []int{0, 1},
		Monitoring: true,
	}}
	rt, err := New(Config{
		Workers:   4,
		Throttler: core.NewPolicyThrottler(pol, 1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	primeThrottler(t, rt)

	srv, err := rt.Serve(ServeConfig{Queue: 64, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	var live, peak int64
	capped := Pair{
		Class: 1,
		Memory: func() {
			cur := atomic.AddInt64(&live, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			atomic.AddInt64(&live, -1)
		},
		Compute: func() {},
	}
	const jobs = 16
	for i := 0; i < jobs; i++ {
		if err := srv.Submit(capped); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != jobs {
		t.Fatalf("completed %d of %d class-capped jobs", st.Completed, jobs)
	}
	if p := atomic.LoadInt64(&peak); p > 1 {
		t.Fatalf("class-1 memory concurrency peaked at %d, cap is 1", p)
	}
}

// TestServeWatchdogDegrades pins the serving session's stall watchdog
// end to end: stallFallbackAfter wedged tasks trip ForceConventional
// mid-session, and the controller stays pinned to the conventional MTL
// for the rest of the session once the wedge clears. The batch path
// has the same check (TestWatchdogFallbackVisible). The fallback
// belongs to the controller path, not to one controller type: the
// plugged case is the throttler examples/hostruntime -attack builds,
// which the watchdog could not degrade while it asserted *core.Dynamic.
func TestServeWatchdogDegrades(t *testing.T) {
	inner := core.NewDynamic(core.NewModel(4), 4)
	for _, c := range []struct {
		name      string
		policy    Policy
		throttler core.Throttler
	}{
		{"built-in", Dynamic, nil},
		{"plugged", 0, core.NewPolicyThrottler(core.NewBlacklist(inner, core.BlacklistOptions{}), 4, 4)},
	} {
		t.Run(c.name, func(t *testing.T) {
			testServeWatchdogDegrades(t, Config{
				Workers:      4,
				Policy:       c.policy,
				Throttler:    c.throttler,
				W:            4,
				StallTimeout: 20 * time.Millisecond,
			})
		})
	}
}

func testServeWatchdogDegrades(t *testing.T, cfg Config) {
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	srv, err := rt.Serve(ServeConfig{Queue: 64, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	// The wedges are compute tasks: the MTL gate may hold a memory
	// task back, and only a running task is flagged.
	wedge := make(chan struct{})
	var once sync.Once
	stuck := Pair{
		Memory:  func() {},
		Compute: func() { <-wedge },
	}
	for range stallFallbackAfter {
		if err := srv.Submit(stuck); err != nil {
			t.Fatal(err)
		}
	}

	// The watchdog ticks at StallTimeout/4; give it several periods to
	// flag the stall and pin the controller to the conventional MTL.
	// Runtime.Health reads the controller under ctrlMu, the same lock
	// the watchdog mutates it under.
	deadline := time.After(5 * time.Second)
	for !rt.Health().Degraded {
		select {
		case <-deadline:
			once.Do(func() { close(wedge) })
			t.Fatal("controller never degraded to the conventional MTL")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if rt.MTL() != 4 {
		t.Errorf("degraded MTL = %d, want the conventional 4", rt.MTL())
	}
	once.Do(func() { close(wedge) })

	// With the wedge cleared, light traffic over many clean watchdog
	// scans leaves the controller where the stall put it.
	for i := 0; i < 20; i++ {
		_ = srv.Submit(Pair{Memory: func() {}, Compute: func() {}})
		time.Sleep(5 * time.Millisecond)
	}
	if h := rt.Health(); !h.Degraded || h.Fallbacks != 1 || rt.MTL() != 4 {
		t.Errorf("after the wedge cleared: health %+v, MTL %d; want one fallback, still at the conventional 4", h, rt.MTL())
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Stalls < stallFallbackAfter {
		t.Errorf("Stalls = %d, want >= %d", st.Stalls, stallFallbackAfter)
	}
	if !st.Degraded {
		t.Error("ServeStats.Degraded = false after a stall storm")
	}
}

// stallWatch is a test policy that sums the stalls class 1 reports.
type stallWatch struct{ class1 atomic.Int64 }

func (s *stallWatch) Name() string { return "test-stall-watch" }
func (s *stallWatch) Observe(w core.WindowStats) core.Decision {
	if len(w.Classes) > 1 {
		s.class1.Add(int64(w.Classes[1].Stalls))
	}
	return core.Decision{Monitoring: true}
}

// The watchdog's stall signal reaches a plugged policy end to end: a
// class-1 memory task wedged on a channel never completes a pair, yet
// its stall shows up in the windows that class-0 pairs close.
func TestServeStallSignalReachesPolicy(t *testing.T) {
	spy := &stallWatch{}
	rt, err := New(Config{
		Workers:      2,
		Throttler:    core.NewPolicyThrottler(spy, 2, 2),
		StallTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	srv, err := rt.Serve(ServeConfig{Queue: 64, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	wedge := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(wedge) }) }
	if err := srv.Submit(Pair{Class: 1, Memory: func() { <-wedge }, Compute: func() {}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for spy.class1.Load() < 1 {
		if err := srv.Submit(Pair{Memory: func() {}, Compute: func() {}}); err != nil {
			unwedge()
			t.Fatal(err)
		}
		select {
		case <-deadline:
			unwedge()
			t.Fatal("the policy never saw class 1's stall")
		case <-time.After(5 * time.Millisecond):
		}
	}
	unwedge()
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Stalls < 1 {
		t.Errorf("Stalls = %d, want >= 1", st.Stalls)
	}
}
