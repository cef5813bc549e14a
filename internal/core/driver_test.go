package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// hogPair is pair i of a two-tenant stream whose class 1 hogs from the
// first window on: Blacklist(Fixed) behind a W=4 driver demotes it at
// the first boundary, after pair 3.
func hogPair(i int, now *Time) PairSample {
	s := PairSample{Tm: 2 * pus, Tc: 6 * pus}
	if i%2 == 1 {
		s.Tm, s.Class = 20*pus, 1
	}
	*now += s.Tm + s.Tc
	s.Now = *now
	return s
}

// demotedAfter feeds the hog stream, with bad injected ahead of clean
// pair 1, and returns the clean pair after which class 1 was demoted
// plus the driver's Health. Every window that reaches the policy must
// be usable.
func demotedAfter(t *testing.T, bad *PairSample) (int, Health) {
	t.Helper()
	bl := NewBlacklist(Fixed{K: 8}, BlacklistOptions{})
	spy := policyFunc{name: "spy", fn: func(w WindowStats) Decision {
		if !finitePositive(w.Tm) || !finitePositive(w.Tc) {
			t.Errorf("window reached Observe with Tm %v, Tc %v", w.Tm, w.Tc)
		}
		for c, cs := range w.Classes {
			if cs.Pairs > 0 && (!finitePositive(cs.TmSum) || !finitePositive(cs.TcSum)) {
				t.Errorf("class %d reached Observe with TmSum %v, TcSum %v", c, cs.TmSum, cs.TcSum)
			}
		}
		return bl.Observe(w)
	}}
	th := NewPolicyThrottler(spy, 4, 8)
	var now Time
	for i := 0; i < 64; i++ {
		if i == 1 && bad != nil {
			th.OnPair(*bad)
		}
		th.OnPair(hogPair(i, &now))
		if th.Blacklisted(1) {
			return i, th.Health()
		}
	}
	return -1, th.Health()
}

// The plugin path is guarded like the legacy one was: an unusable
// sample never reaches Observe, is counted, and leaves the hog's
// demotion where the clean stream has it. Before the driver guarded,
// one NaN Tm poisoned all Rot x Period rotating counters and put the
// demotion off from pair 3 to pair 46.
func TestPolicyThrottlerGuards(t *testing.T) {
	clean, h := demotedAfter(t, nil)
	if clean != 3 || h.Dropped != 0 || h.Kept != 4 {
		t.Fatalf("clean stream: demoted after pair %d, health %+v; want pair 3, 4 kept", clean, h)
	}
	for _, v := range []Time{Time(math.NaN()), Time(math.Inf(1)), Time(math.Inf(-1)), 0, -pus} {
		for _, bad := range []PairSample{
			{Tm: v, Tc: 6 * pus, Now: 9 * pus, Class: 1},
			{Tm: 2 * pus, Tc: v, Now: 9 * pus},
		} {
			got, h := demotedAfter(t, &bad)
			if got != clean {
				t.Errorf("bad sample %+v: demoted after pair %d, want %d", bad, got, clean)
			}
			if h.Dropped != 1 || h.Kept+h.Clamped != 4 {
				t.Errorf("bad sample %+v: health %+v, want 1 dropped, 4 admitted", bad, h)
			}
		}
	}
}

// Dynamic and OnlineExhaustive hold the driver without becoming
// class-aware: a runtime that found ClassLimiter or Observer on them
// would pay per-class admission CASes and stall signals for controllers
// that ignore classes.
func TestLegacyControllersStayClassBlind(t *testing.T) {
	for _, th := range []Throttler{NewDynamic(NewModel(4), 4), NewOnlineExhaustive(NewModel(4), 4, 0)} {
		if _, ok := th.(ClassLimiter); ok {
			t.Errorf("%s is a ClassLimiter", th.Name())
		}
		if _, ok := th.(Observer); ok {
			t.Errorf("%s is an Observer", th.Name())
		}
		if _, ok := th.(Degrader); !ok {
			t.Errorf("%s is not a Degrader", th.Name())
		}
	}
}

// The fallback reaches plugged controllers: the driver pins its own
// fallback limit and ignores samples from then on, and a wrapping
// Blacklist's demotions stand.
func TestDriverFallbackPinsLimit(t *testing.T) {
	d := NewDynamic(NewModel(8), 4)
	bl := NewBlacklist(d, BlacklistOptions{})
	th := NewPolicyThrottler(bl, 4, 8)
	var now Time
	for i := 0; !d.Watching(); i++ {
		if i > 200 {
			t.Fatal("inner D-MTL never settled")
		}
		th.OnPair(hogPair(i, &now))
	}
	if !th.Blacklisted(1) || th.MTL() == 8 {
		t.Fatalf("before fallback: blacklisted %v, MTL %d; want a demoted hog and a throttled limit", th.Blacklisted(1), th.MTL())
	}
	sels, changes := d.Selections, len(th.History)

	th.ForceConventional()
	if h := th.Health(); !h.Degraded || h.Fallbacks != 1 || th.MTL() != 8 || th.Monitoring() {
		t.Errorf("forced: health %+v, MTL %d, monitoring %v", h, th.MTL(), th.Monitoring())
	}
	if len(th.History) != changes+1 || th.History[changes] != 8 {
		t.Errorf("History after fallback = %v, want the fallback limit appended", th.History)
	}
	if !th.Blacklisted(1) {
		t.Error("the fallback lifted the blacklist")
	}
	th.ForceConventional()
	if th.Health().Fallbacks != 1 {
		t.Error("a second ForceConventional counted")
	}
	admitted := th.Health().Kept
	for i := 0; i < 16; i++ {
		th.OnPair(hogPair(i, &now))
	}
	if th.MTL() != 8 || th.Health().Kept != admitted || d.Selections != sels {
		t.Error("degraded driver kept consuming samples")
	}
}

// ReportOf answers each controller's own history and looks through
// decorators.
func TestReportOf(t *testing.T) {
	d := NewDynamic(NewModel(4), 4)
	feedLaw(d, 200, 0.8*us, 0.1*us, 10*us)
	rep := ReportOf(unwrapping{unwrapping{d}})
	if len(rep.Decisions) != 1 || rep.Decisions[0] != 1 || rep.Probes != d.TotalProbes || rep.Health.Kept != 200 {
		t.Errorf("wrapped Dynamic: %+v", rep)
	}
	rep.Decisions[0] = 9
	if d.History[0] != 1 {
		t.Error("Report.Decisions aliases the controller's History")
	}
	th := NewPolicyThrottler(NewBlacklist(NewDynamic(NewModel(4), 4), BlacklistOptions{}), 4, 4)
	feedLaw(th, 200, 0.8*us, 0.1*us, 10*us)
	if rep := ReportOf(th); len(rep.Decisions) != len(th.History) || len(rep.Decisions) < 2 || rep.Probes != 0 {
		t.Errorf("plugin throttler: %+v, want its %d published changes", rep, len(th.History))
	}
	if rep := ReportOf(Fixed{K: 2}); rep.Decisions != nil || rep.Probes != 0 || rep.Health != (Health{}) {
		t.Errorf("Fixed: %+v, want zero", rep)
	}
}

type unwrapping struct{ Throttler }

func (u unwrapping) Unwrap() Throttler { return u.Throttler }

// The driver's steady state allocates nothing: bench/ times these two
// streams and `make bench-check` holds the second to zero allocs/op,
// but neither runs in tier 1.
func TestDriverSteadyStateAllocs(t *testing.T) {
	d := NewDynamic(NewModel(4), 16)
	feedLaw(d, 400, 0.8*us, 0.1*us, 10*us)
	if !d.Watching() {
		t.Fatal("D-MTL not watching")
	}
	now := Time(1)
	if n := testing.AllocsPerRun(100, func() {
		// 40 pairs: two or three window boundaries a run.
		for i := 0; i < 40; i++ {
			now += 11 * us
			d.OnPair(PairSample{Tm: 0.9 * us, Tc: 10 * us, Now: now})
		}
	}); n != 0 || !d.Watching() {
		t.Errorf("watching D-MTL: %v allocs per 40 pairs (watching %v), want 0", n, d.Watching())
	}

	th := NewPolicyThrottler(NewBlacklist(Fixed{K: 8}, BlacklistOptions{}), 16, 8)
	var pnow Time
	feedPairs(th, 16, 2*pus, 6*pus, 0, &pnow)
	feedPairs(th, 16, 10*pus, pus, 1, &pnow)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		for j := 0; j < 40; j++ {
			i++
			pnow += 8 * pus
			th.OnSignal(i&1, SignalStall)
			th.OnPair(PairSample{Tm: 2 * pus, Tc: 6 * pus, Now: pnow, Class: i & 1})
		}
	}); n != 0 {
		t.Errorf("two-class blacklist: %v allocs per 40 pairs, want 0", n)
	}
}

// The driver's concurrency contract under the race detector: mutators
// (OnPair on one goroutine, ForceConventional on another) serialized by
// the caller's lock, as host's ctrlMu does, with every published read
// and OnSignal free-running beside them. The fallback lasts for the
// life of a controller, so each of eight rounds degrades a fresh one
// halfway through its stream.
func TestDriverConcurrentReaders(t *testing.T) {
	var cur atomic.Pointer[PolicyThrottler]
	cur.Store(NewPolicyThrottler(NewBlacklist(NewDynamic(NewModel(8), 4), BlacklistOptions{}), 4, 8))
	stop := make(chan struct{})
	var side sync.WaitGroup
	for r := 0; r < 3; r++ {
		side.Add(1)
		go func(r int) {
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				th := cur.Load()
				if k := th.MTL(); k < 1 || k > 8 {
					t.Errorf("MTL = %d escaped [1, 8]", k)
					return
				}
				if cl := th.ClassLimit(1); cl < 0 || cl > 8 {
					t.Errorf("ClassLimit(1) = %d", cl)
					return
				}
				th.Blacklisted(1)
				th.OnSignal(r&1, SignalStall)
				runtime.Gosched()
			}
		}(r)
	}
	var now Time
	for round := 0; round < 8; round++ {
		th := NewPolicyThrottler(NewBlacklist(NewDynamic(NewModel(8), 4), BlacklistOptions{}), 4, 8)
		cur.Store(th)
		var mu sync.Mutex
		half := make(chan struct{})
		var degrader sync.WaitGroup
		degrader.Add(1)
		go func() {
			defer degrader.Done()
			<-half
			mu.Lock()
			th.ForceConventional()
			mu.Unlock()
		}()
		for i := 0; i < 4000; i++ {
			if i == 2000 {
				close(half)
			}
			mu.Lock()
			th.OnPair(hogPair(i, &now))
			mu.Unlock()
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		degrader.Wait()
		if h := th.Health(); h.Fallbacks != 1 || !h.Degraded || th.MTL() != 8 {
			t.Errorf("round %d: health %+v, MTL %d; want one fallback to the conventional 8", round, h, th.MTL())
		}
	}
	close(stop)
	side.Wait()
}
