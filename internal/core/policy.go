package core

import (
	"fmt"
	"sync/atomic"
)

// MaxClasses bounds the number of traffic classes a policy can track.
// Class 0 is the default for all legacy single-tenant traffic; the
// adversarial experiments use class 1 for the attacker stream. The
// bound keeps per-window bookkeeping in fixed arrays so the Observe
// hot path stays allocation-free.
const MaxClasses = 8

// Signal is an out-of-band runtime event fed to class-aware policies.
// The one a policy reads is the watchdog's stall flag: it complements
// the completion-driven PairSample stream, since an attacker that
// wedges its tasks shows up in stalls long before completions.
type Signal int

const (
	// SignalIssue is accepted and ignored. No policy reads admission
	// counts; the value stays only because the benchmark module still
	// emits it.
	SignalIssue Signal = iota
	// SignalStall records one watchdog-flagged stalled task.
	SignalStall
)

// ClassStats aggregates one traffic class over one monitor window.
type ClassStats struct {
	Pairs  int  // completed pairs
	TmSum  Time // summed memory-task durations
	TcSum  Time // summed compute-task durations
	Stalls int  // watchdog stall flags
}

// WindowStats is what a Policy observes at each monitor-window
// boundary: aggregate mean task durations plus per-class breakdowns,
// each with the stall flags raised since the previous window.
type WindowStats struct {
	Start Time // wall-clock when the window opened
	End   Time // completion instant of the pair that closed it
	Pairs int  // completed pairs in the window

	// Tm and Tc are the mean per-pair memory and compute durations of
	// the window, after the driver's per-sample guarding.
	Tm Time
	Tc Time

	// Classes holds the per-class breakdown, indexed by class id: every
	// class that completed a pair or raised a stall so far. It aliases
	// the caller's scratch storage and is only valid for the duration
	// of the Observe call.
	Classes []ClassStats
}

// Decision is a policy's verdict for the next window.
type Decision struct {
	// Limit is the aggregate memory-task limit to enforce. Zero or
	// negative leaves the current limit unchanged.
	Limit int
	// ClassLimit holds per-class memory-task limits, indexed by class;
	// a zero or negative entry (or a nil slice) means unlimited beyond
	// the aggregate Limit. Like WindowStats.Classes it may alias the
	// policy's scratch storage; callers must consume it before the
	// next Observe.
	ClassLimit []int
	// Blacklist is a bitmask of demoted classes. A blacklisted class
	// executes fully serialized (an effective per-class limit of 1)
	// until a later decision clears the bit.
	Blacklist uint64
	// Monitoring reports whether pair instrumentation should stay on.
	Monitoring bool
}

// Policy is the pluggable throttling-policy contract: observe one
// monitor window's statistics, return the limits to enforce for the
// next. Policies are pure controllers — windowing, per-sample
// guarding, atomic publication of limits and the conventional fallback
// belong to the one driver, PolicyThrottler. Observe is externally
// serialized like every Throttler mutator.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Observe consumes one window and returns the next decision.
	Observe(w WindowStats) Decision
}

// ClassLimiter is implemented by throttlers that enforce per-class
// limits on top of the aggregate MTL. Both methods are atomic reads,
// safe from any goroutine, mirroring the Throttler.MTL contract.
type ClassLimiter interface {
	// ClassLimit reports the memory-task limit for class; 0 means
	// unlimited beyond the aggregate MTL.
	ClassLimit(class int) int
	// Blacklisted reports whether class is currently demoted.
	Blacklisted(class int) bool
}

// Observer is implemented by throttlers that consume out-of-band
// runtime signals: the host runtime's stall watchdog calls OnSignal
// once per flagged task. OnSignal must be safe to call concurrently
// with itself and with MTL readers.
type Observer interface {
	OnSignal(class int, sig Signal)
}

// window accumulates W pair samples.
type window struct {
	w     int
	count int
	tmSum Time
	tcSum Time
	start Time // wall-clock when the window opened
	open  bool
}

func (a *window) add(s PairSample) bool {
	if !a.open {
		a.start = s.Now
		a.open = true
	}
	a.count++
	a.tmSum += s.Tm
	a.tcSum += s.Tc
	return a.count >= a.w
}

func (a *window) measurement() Measurement {
	return Measurement{Tm: a.tmSum / Time(a.count), Tc: a.tcSum / Time(a.count)}
}

func (a *window) span(now Time) Time { return now - a.start }

func (a *window) reset() { *a = window{w: a.w} }

// PolicyThrottler is the one window driver: it adapts a Policy to the
// Throttler interface and is the only place a pair stream is guarded,
// windowed, published and degraded. Every sample passes the
// measurement guard (non-finite or non-positive timings are dropped,
// outlying Tm spikes winsorized — cf. MISE's estimation guard rails);
// W admitted pairs make a window; at each boundary the driver harvests
// per-class aggregates and stall counters, calls Observe, and
// publishes the decision behind atomics so scheduler hot paths read
// limits lock-free. Dynamic and OnlineExhaustive hold one by value
// (see front). The zero-allocation boundary is pinned by
// BenchmarkPolicyObserve and TestDriverSteadyStateAllocs.
type PolicyThrottler struct {
	p        Policy
	fallback int // the conventional limit ForceConventional pins

	mtl        atomic.Int32
	monitoring bool
	guard      guard // its Health carries the fallback state too
	win        window
	classes    [MaxClasses]ClassStats
	scratch    [MaxClasses]ClassStats
	maxClass   int

	// Cumulative stall counters (concurrent writers) and the values
	// harvested at the previous boundary.
	stalls [MaxClasses]atomic.Int64
	seen   [MaxClasses]int64

	climit [MaxClasses]atomic.Int32
	black  atomic.Uint64

	// History records every published change of the aggregate limit,
	// fallbacks included, in order — not to be read as Dynamic.History,
	// which lists only the MTLs a finished selection decided.
	History []int
}

// NewPolicyThrottler wraps p with window size w and an initial
// aggregate limit, which is also the conventional limit
// ForceConventional falls back to (callers pass the thread count).
// Panics on w < 1 or limit < 1.
func NewPolicyThrottler(p Policy, w, limit int) *PolicyThrottler {
	t := new(PolicyThrottler)
	t.init(p, w, limit)
	return t
}

// init sets the driver up in place: it holds atomics, so it is never
// copied.
func (t *PolicyThrottler) init(p Policy, w, limit int) {
	if w < 1 || limit < 1 {
		panic(fmt.Sprintf("core: controller with W = %d, limit = %d", w, limit))
	}
	t.p, t.fallback, t.monitoring, t.win = p, limit, true, window{w: w}
	t.mtl.Store(int32(limit))
}

// Name implements Throttler.
func (t *PolicyThrottler) Name() string { return t.p.Name() }

// MTL implements Throttler. The read is a single atomic load: the host
// runtime's workers and samplers call it concurrently with the
// (externally serialized) OnPair and ForceConventional.
func (t *PolicyThrottler) MTL() int { return int(t.mtl.Load()) }

// Monitoring implements Throttler: the last decision's flag; a
// degraded controller has stopped adapting and measures nothing.
func (t *PolicyThrottler) Monitoring() bool { return t.monitoring }

// Health reports the measurement-guard summary: samples kept, clamped
// and dropped, windows discarded, and fallback state.
func (t *PolicyThrottler) Health() Health { return t.guard.h }

// ForceConventional pins the limit to the conventional one and stops
// the controller from adapting — the graceful-degradation path the host
// runtime takes when its stall watchdog no longer trusts task timings.
// Class limits and the blacklist stay as last published.
func (t *PolicyThrottler) ForceConventional() {
	if t.guard.h.Degraded {
		return
	}
	t.guard.h.Degraded = true
	t.guard.h.Fallbacks++
	t.monitoring = false
	t.win.reset()
	t.classes = [MaxClasses]ClassStats{}
	t.publish(t.fallback)
}

// ClassLimit implements ClassLimiter. Blacklisted classes report a
// limit of 1 — demotion to fully serialized execution.
func (t *PolicyThrottler) ClassLimit(class int) int {
	if class < 0 || class >= MaxClasses {
		return 0
	}
	if t.black.Load()&(1<<uint(class)) != 0 {
		return 1
	}
	return int(t.climit[class].Load())
}

// Blacklisted implements ClassLimiter.
func (t *PolicyThrottler) Blacklisted(class int) bool {
	if class < 0 || class >= MaxClasses {
		return false
	}
	return t.black.Load()&(1<<uint(class)) != 0
}

// OnSignal implements Observer: a stall is one lock-free counter bump,
// harvested at the next window boundary; any other signal is ignored.
func (t *PolicyThrottler) OnSignal(class int, sig Signal) {
	if sig != SignalStall {
		return
	}
	if class < 0 || class >= MaxClasses {
		class = 0
	}
	t.stalls[class].Add(1)
}

// OnPair implements Throttler: guard the sample, accumulate it per
// class, and at each window boundary hand the policy a WindowStats
// snapshot and publish its decision. A degraded driver ignores samples.
func (t *PolicyThrottler) OnPair(s PairSample) {
	if t.guard.h.Degraded {
		return
	}
	if !t.guard.admit(&s) {
		return
	}
	c := s.Class
	if c < 0 || c >= MaxClasses {
		c = 0
	}
	if c >= t.maxClass {
		t.maxClass = c + 1
	}
	cs := &t.classes[c]
	cs.Pairs++
	cs.TmSum += s.Tm
	cs.TcSum += s.Tc
	if !t.win.add(s) {
		return
	}
	// A class that has stalled but never completed a pair still reaches
	// the policy: a wedging attacker may never complete one.
	for i := t.maxClass; i < MaxClasses; i++ {
		if t.stalls[i].Load() != t.seen[i] {
			t.maxClass = i + 1
		}
	}
	m := t.win.measurement()
	ws := WindowStats{
		Start:   t.win.start,
		End:     s.Now,
		Pairs:   t.win.w,
		Tm:      m.Tm,
		Tc:      m.Tc,
		Classes: t.scratch[:t.maxClass],
	}
	t.win.reset()
	for i := 0; i < t.maxClass; i++ {
		cc := t.classes[i]
		n := t.stalls[i].Load()
		cc.Stalls = int(n - t.seen[i])
		t.seen[i] = n
		t.scratch[i] = cc
		t.classes[i] = ClassStats{}
	}
	if !finitePositive(ws.Tm) || !finitePositive(ws.Tc) {
		// Sums of admitted samples can still overflow. An unusable
		// aggregate never reaches the policy: the window is discarded
		// and whatever it was measuring is measured again.
		t.guard.h.DiscardedWindows++
		return
	}

	t.apply(t.p.Observe(ws))
}

// apply publishes one decision.
func (t *PolicyThrottler) apply(d Decision) {
	if d.Limit > 0 {
		t.publish(d.Limit)
	}
	for i := 0; i < MaxClasses; i++ {
		lim := 0
		if i < len(d.ClassLimit) && d.ClassLimit[i] > 0 {
			lim = d.ClassLimit[i]
		}
		if int32(lim) != t.climit[i].Load() {
			t.climit[i].Store(int32(lim))
		}
	}
	t.black.Store(d.Blacklist)
	t.monitoring = d.Monitoring
}

// publish moves the aggregate limit, recording the change.
func (t *PolicyThrottler) publish(limit int) {
	if limit != int(t.mtl.Load()) {
		t.mtl.Store(int32(limit))
		t.History = append(t.History, limit)
	}
}

// Report is what a run's report reads off a controller once it is done.
type Report struct {
	// Decisions is the controller's own History, copied: for Dynamic
	// and OnlineExhaustive the MTLs decided by finished selections, for
	// a PolicyThrottler every published change of the limit. The two
	// are not comparable.
	Decisions []int
	// Probes counts the windows spent measuring candidate MTLs; a
	// PolicyThrottler reports none, whatever its policy did.
	Probes int
	Health Health
}

// ReportOf reads th's Report, looking through decorators that expose
// what they wrap with Unwrap() Throttler (fault injectors, corrupting
// measurement proxies). Fixed and foreign throttlers report zero.
func ReportOf(th Throttler) Report {
	for th != nil {
		switch t := th.(type) {
		case *Dynamic:
			return Report{append([]int(nil), t.History...), t.TotalProbes, t.Health()}
		case *OnlineExhaustive:
			return Report{append([]int(nil), t.History...), t.TotalProbes, t.Health()}
		case *PolicyThrottler:
			return Report{append([]int(nil), t.History...), 0, t.Health()}
		case interface{ Unwrap() Throttler }:
			th = t.Unwrap()
		default:
			return Report{}
		}
	}
	return Report{}
}

// Degrader is implemented by every adaptive controller — Dynamic,
// OnlineExhaustive, PolicyThrottler around any policy: the runtime's
// stall watchdog pins it to the conventional limit through
// ForceConventional, which lasts for the life of the controller, and
// reads the state back from Health. ForceConventional is a mutator, so
// externally serialized like OnPair.
type Degrader interface {
	Health() Health
	ForceConventional()
}
