package host

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the process goroutine count drops back to
// at most want, failing the test after a generous drain window.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d live, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosPairs builds n lightweight pairs counting completions.
func chaosPairs(n int) ([]Pair, *int64) {
	done := new(int64)
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{
			Memory:  func() { busy(2000) },
			Compute: func() { busy(4000); atomic.AddInt64(done, 1) },
		}
	}
	return pairs, done
}

// TestChaosDeadlineAndGoroutineHygiene is the acceptance scenario:
// panic rate 5%, hang rate 2%, spike rate 20% on a dynamic runtime
// with retry. The deadlined RunContext must return within 2x the
// deadline even with workers wedged in hung tasks, and once the
// injector releases the hangs every goroutine must drain.
func TestChaosDeadlineAndGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()

	fi, err := NewFaultInjector(FaultConfig{
		PanicRate:  0.05,
		HangRate:   0.02,
		ErrorRate:  0.05,
		SpikeRate:  0.20,
		SpikeDelay: 500 * time.Microsecond,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Workers: 4,
		Policy:  Dynamic,
		W:       4,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	pairs, _ := chaosPairs(300)
	const deadline = 250 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	t0 := time.Now()
	st, runErr := rt.RunContext(ctx, fi.Wrap(pairs))
	elapsed := time.Since(t0)

	if elapsed > 2*deadline {
		t.Errorf("RunContext took %v, want <= %v", elapsed, 2*deadline)
	}
	// With ~6 planted hangs among 600 tasks the run cannot finish: it
	// must have been cut by the deadline and say so.
	if c := fi.Counts(); c.Hangs > 0 {
		if !errors.Is(runErr, context.DeadlineExceeded) {
			t.Errorf("err = %v with %d hangs planted, want DeadlineExceeded", runErr, c.Hangs)
		}
		if !st.Cancelled {
			t.Error("Stats.Cancelled not set on a deadlined run")
		}
		if st.CompletedPairs >= st.Pairs {
			t.Errorf("deadlined run claims %d/%d pairs completed", st.CompletedPairs, st.Pairs)
		}
	} else {
		t.Fatalf("fault plan has no hangs (seed drift?): %+v", fi.Counts())
	}

	// Release the hangs: every hung task, worker, canceller and
	// watchdog goroutine must drain.
	fi.Stop()
	hungDeadline := time.Now().Add(10 * time.Second)
	for fi.Hung() != 0 {
		if time.Now().After(hungDeadline) {
			t.Fatalf("%d tasks still hung after Stop", fi.Hung())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitGoroutines(t, before)
}

// TestRetryRecoversTransientFaults: with only transient errors and
// panics injected, a bounded retry policy must carry the run to clean
// completion and the recovery must be visible in Stats.
func TestRetryRecoversTransientFaults(t *testing.T) {
	fi, err := NewFaultInjector(FaultConfig{
		PanicRate: 0.10,
		ErrorRate: 0.30,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Workers: 4,
		Policy:  Static,
		MTL:     2,
		W:       4,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	pairs, done := chaosPairs(120)
	st, runErr := rt.Run(fi.Wrap(pairs))
	if runErr != nil {
		t.Fatalf("retry did not recover the run: %v", runErr)
	}
	if got := atomic.LoadInt64(done); got != 120 {
		t.Errorf("completed %d/120 pairs", got)
	}
	if st.CompletedPairs != 120 {
		t.Errorf("Stats.CompletedPairs = %d, want 120", st.CompletedPairs)
	}
	c := fi.Counts()
	if c.Errors+c.Panics == 0 {
		t.Fatalf("fault plan empty: %+v", c)
	}
	if st.Retries < c.Errors+c.Panics {
		t.Errorf("Retries = %d, want >= %d planted faults", st.Retries, c.Errors+c.Panics)
	}
	if st.Recovered < c.Errors+c.Panics {
		t.Errorf("Recovered = %d, want >= %d", st.Recovered, c.Errors+c.Panics)
	}
}

// TestRetryExhaustionFailsRun: a permanent fault outlasts the retry
// budget and surfaces with attempt context.
func TestRetryExhaustionFailsRun(t *testing.T) {
	rt, err := New(Config{
		Workers: 2,
		Policy:  Conventional,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var calls int64
	stuck := errors.New("permanently broken")
	pairs := []Pair{{
		MemoryErr: func() error { atomic.AddInt64(&calls, 1); return stuck },
		Compute:   func() {},
	}}
	_, runErr := rt.Run(pairs)
	if !errors.Is(runErr, stuck) {
		t.Fatalf("err = %v, want wrapped %v", runErr, stuck)
	}
	if calls != 3 {
		t.Errorf("task attempted %d times, want 3", calls)
	}
}

// TestWatchdogFallbackVisible: every memory task exceeds StallTimeout;
// after stallFallbackAfter flags the Dynamic controller must be pinned
// to the conventional MTL and the degradation reported in Stats and
// Health.
func TestWatchdogFallbackVisible(t *testing.T) {
	rt, err := New(Config{
		Workers:      4,
		Policy:       Dynamic,
		W:            4,
		StallTimeout: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pairs := make([]Pair, 24)
	for i := range pairs {
		pairs[i] = Pair{
			Memory:  func() { time.Sleep(12 * time.Millisecond) },
			Compute: func() { busy(1000) },
		}
	}
	st, runErr := rt.Run(pairs)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if st.Stalls < stallFallbackAfter {
		t.Fatalf("watchdog flagged %d stalls, want >= %d", st.Stalls, stallFallbackAfter)
	}
	if len(st.Stalled) != st.Stalls {
		t.Errorf("Stalled pairs %v inconsistent with Stalls = %d", st.Stalled, st.Stalls)
	}
	if !st.Degraded {
		t.Error("Stats.Degraded not set after repeated stalls")
	}
	if st.FinalMTL != 4 {
		t.Errorf("FinalMTL = %d after fallback, want workers (4)", st.FinalMTL)
	}
	h := rt.Health()
	if !h.Degraded || h.Fallbacks != 1 {
		t.Errorf("Health after fallback: %+v", h)
	}
	if len(st.MTLDecisions) == 0 || st.MTLDecisions[len(st.MTLDecisions)-1] != 4 {
		t.Errorf("fallback decision missing from history: %v", st.MTLDecisions)
	}
}

// TestRunContextCancelPartialStats: cancelling mid-run returns
// context.Canceled with the completed prefix counted, and the runtime
// survives for the next phase.
func TestRunContextCancelPartialStats(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	started, release := make(chan struct{}), make(chan struct{})
	pairs := make([]Pair, 50)
	for i := range pairs {
		first := i == 0
		pairs[i] = Pair{
			Memory: func() { busy(1000) },
			Compute: func() {
				if first {
					close(started)
					<-release // hold one worker past the run's return
				}
				busy(1000)
			},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	st, runErr := rt.RunContext(ctx, pairs)
	// RunContext returns without waiting for the wedged task, so the
	// held pair provably completes after the cancel and is not counted.
	close(release)
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if !st.Cancelled {
		t.Error("Stats.Cancelled not set")
	}
	if st.CompletedPairs >= st.Pairs {
		t.Errorf("cancelled run reports %d/%d pairs", st.CompletedPairs, st.Pairs)
	}
	// Usable afterwards.
	ok, m2, c2, _, _, _ := makePairs(10, false)
	if _, err := rt.Run(ok); err != nil {
		t.Fatalf("runtime wedged after cancellation: %v", err)
	}
	if *m2 != 10 || *c2 != 10 {
		t.Errorf("post-cancel run executed %d/%d, want 10/10", *m2, *c2)
	}
}

// TestPreCancelledContext: an already-dead ctx never starts work.
func TestPreCancelledContext(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Conventional})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs, mem, _, _, _, _ := makePairs(5, false)
	if _, err := rt.RunContext(ctx, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if *mem != 0 {
		t.Errorf("%d tasks ran under a dead context", *mem)
	}
}

// TestFaultInjectorDeterminism: the fault plan is a pure function of
// the seed and the task order.
func TestFaultInjectorDeterminism(t *testing.T) {
	plan := func(seed int64) FaultCounts {
		fi, err := NewFaultInjector(FaultConfig{
			PanicRate: 0.1, HangRate: 0.1, ErrorRate: 0.1, SpikeRate: 0.2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs, _ := chaosPairs(200)
		fi.Wrap(pairs)
		return fi.Counts()
	}
	if a, b := plan(3), plan(3); a != b {
		t.Errorf("same seed, different plans: %+v vs %+v", a, b)
	}
	if a, b := plan(3), plan(4); a == b {
		t.Errorf("different seeds produced identical plans: %+v", a)
	}
}

// TestFaultConfigValidation covers every rejection branch.
func TestFaultConfigValidation(t *testing.T) {
	bad := []struct {
		name string
		cfg  FaultConfig
	}{
		{"negative panic rate", FaultConfig{PanicRate: -0.1}},
		{"hang rate above 1", FaultConfig{HangRate: 1.5}},
		{"negative error rate", FaultConfig{ErrorRate: -1}},
		{"spike rate above 1", FaultConfig{SpikeRate: 2}},
		{"rates sum above 1", FaultConfig{PanicRate: 0.5, HangRate: 0.4, ErrorRate: 0.3}},
		{"negative spike delay", FaultConfig{SpikeDelay: -time.Second}},
		{"NaN panic rate", FaultConfig{PanicRate: math.NaN()}},
		{"NaN hang rate", FaultConfig{HangRate: math.NaN()}},
		{"NaN error rate", FaultConfig{ErrorRate: math.NaN()}},
		{"NaN spike rate", FaultConfig{SpikeRate: math.NaN()}},
		{"positive-infinite rate", FaultConfig{ErrorRate: math.Inf(1)}},
		{"negative-infinite rate", FaultConfig{SpikeRate: math.Inf(-1)}},
		{"negative zero is fine but -0.1 is not", FaultConfig{PanicRate: -0.1, SpikeRate: 0.1}},
	}
	for _, c := range bad {
		if _, err := NewFaultInjector(c.cfg); err == nil {
			t.Errorf("%s: bad fault config accepted: %+v", c.name, c.cfg)
		}
	}
	good := []struct {
		name string
		cfg  FaultConfig
	}{
		{"zero config", FaultConfig{}},
		{"negative zero rate", FaultConfig{PanicRate: math.Copysign(0, -1)}},
		{"rates sum to exactly 1", FaultConfig{PanicRate: 0.25, HangRate: 0.25, ErrorRate: 0.25, SpikeRate: 0.25}},
		{"single full-rate fault", FaultConfig{ErrorRate: 1}},
		{"forever-failing tasks", FaultConfig{ErrorRate: 0.5, FailuresPerTask: -1}},
	}
	for _, c := range good {
		if _, err := NewFaultInjector(c.cfg); err != nil {
			t.Errorf("%s: valid fault config rejected: %v", c.name, err)
		}
	}
}

// TestFaultKindString pins the names used in chaos reports.
func TestFaultKindString(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultNone: "none", FaultPanic: "panic", FaultHang: "hang",
		FaultError: "error", FaultSpike: "spike", FaultKind(99): "FaultKind(99)",
	} {
		if k.String() != want {
			t.Errorf("FaultKind.String() = %q, want %q", k.String(), want)
		}
	}
}
