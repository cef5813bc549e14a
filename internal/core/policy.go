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

// Signal is an out-of-band runtime event fed to class-aware policies:
// memory-task admissions (issue counts), watchdog stall flags, and
// retry attempts from the fault-tolerant run path. Signals complement
// the completion-driven PairSample stream — an attacker that wedges
// tasks shows up in stalls and issues long before completions.
type Signal int

const (
	// SignalIssue records one memory-task admission.
	SignalIssue Signal = iota
	// SignalStall records one watchdog-flagged stalled task.
	SignalStall
	// SignalRetry records one failed task attempt that was retried.
	SignalRetry
)

// ClassStats aggregates one traffic class over one monitor window.
type ClassStats struct {
	Pairs   int  // completed pairs
	Issues  int  // memory-task admissions
	TmSum   Time // summed memory-task durations
	TcSum   Time // summed compute-task durations
	Stalls  int  // watchdog stall flags
	Retries int  // retried task attempts
}

// WindowStats is what a Policy observes at each monitor-window
// boundary: aggregate mean task durations plus per-class breakdowns
// and the stall/retry guard-rail signals accumulated since the
// previous window.
type WindowStats struct {
	Start Time // wall-clock when the window opened
	End   Time // completion instant of the pair that closed it
	Pairs int  // completed pairs in the window

	// Tm and Tc are the mean per-pair memory and compute durations of
	// the window, after the driver's per-sample guarding.
	Tm Time
	Tc Time

	Stalls  int // window-total watchdog stall flags
	Retries int // window-total retried attempts

	// Classes holds the per-class breakdown, indexed by class id. It
	// aliases the caller's scratch storage and is only valid for the
	// duration of the Observe call.
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

// restarter is the optional Policy method the driver calls when the
// conventional fallback is lifted: drop what was learned, start over,
// and say what to enforce meanwhile. Dynamic begins a fresh selection;
// a wrapping policy forwards to the one it wraps.
type restarter interface {
	Restart() Decision
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
// runtime signals (issues, stalls, retries). OnSignal must be safe to
// call concurrently with itself and with MTL readers: the host runtime
// issues memory tasks from many workers at once.
type Observer interface {
	OnSignal(class int, sig Signal)
}

// SignalSource is the batched alternative to per-event OnSignal calls:
// a runtime that keeps its own per-worker signal shards exposes their
// cumulative per-class totals, and the throttler polls them once per
// window boundary instead of taking one contended atomic add per
// admission. Totals must be monotone non-decreasing and safe to read
// from any goroutine; the throttler diffs consecutive polls to recover
// per-window counts.
type SignalSource interface {
	// SignalTotals reports the cumulative issue and retry counts
	// recorded for class since the source was created.
	SignalTotals(class int) (issues, retries int64)
}

// SignalBatching is implemented by throttlers that can aggregate a
// SignalSource's shard snapshots at window boundaries. A runtime that
// detects the interface registers its source once and then stops
// emitting per-event SignalIssue/SignalRetry calls; stall signals keep
// the OnSignal path (they originate on a single watchdog goroutine, so
// batching buys nothing).
type SignalBatching interface {
	SetSignalSource(src SignalSource)
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
// per-class aggregates and signal counters, calls Observe, and
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

	// Cumulative signal counters (concurrent writers) and the values
	// harvested at the previous boundary. src, when registered, adds
	// the runtime's striped per-worker issue/retry totals on top of the
	// OnSignal-fed counters at each harvest.
	issues  [MaxClasses]atomic.Int64
	stalls  [MaxClasses]atomic.Int64
	retries [MaxClasses]atomic.Int64
	seen    [MaxClasses][3]int64
	src     SignalSource

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
// (externally serialized) OnPair, ForceConventional and Rearm.
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

// Rearm lifts the conventional fallback — the recovery path the host
// watchdog takes once the stall storm that forced degradation has
// passed and task timings can be trusted again. A policy with a
// Restart method starts over from it; any other resumes at its next
// window. A controller that was never degraded is untouched.
func (t *PolicyThrottler) Rearm() {
	if !t.guard.h.Degraded {
		return
	}
	t.guard.h.Degraded = false
	t.guard.h.Rearms++
	t.monitoring = true
	if r, ok := t.p.(restarter); ok {
		t.apply(r.Restart())
	}
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

// SetSignalSource implements SignalBatching: totals polled from src at
// each window boundary are added on top of the OnSignal-fed counters.
// Register at setup time, before the pair stream starts; the source is
// read under the same external serialization as OnPair.
func (t *PolicyThrottler) SetSignalSource(src SignalSource) { t.src = src }

// OnSignal implements Observer: lock-free counter bumps, harvested at
// the next window boundary.
func (t *PolicyThrottler) OnSignal(class int, sig Signal) {
	if class < 0 || class >= MaxClasses {
		class = 0
	}
	switch sig {
	case SignalIssue:
		t.issues[class].Add(1)
	case SignalStall:
		t.stalls[class].Add(1)
	case SignalRetry:
		t.retries[class].Add(1)
	}
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
		issues, retries := t.issues[i].Load(), t.retries[i].Load()
		if t.src != nil {
			si, sr := t.src.SignalTotals(i)
			issues += si
			retries += sr
		}
		cc.Issues = int(issues - t.seen[i][0])
		cc.Stalls = int(t.stalls[i].Load() - t.seen[i][1])
		cc.Retries = int(retries - t.seen[i][2])
		t.seen[i][0] += int64(cc.Issues)
		t.seen[i][1] += int64(cc.Stalls)
		t.seen[i][2] += int64(cc.Retries)
		ws.Stalls += cc.Stalls
		ws.Retries += cc.Retries
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
// stall watchdog pins it to the conventional limit and re-arms it
// through these, and reads the state back from Health. Mutators, so
// externally serialized like OnPair.
type Degrader interface {
	Health() Health
	ForceConventional()
	Rearm()
}
