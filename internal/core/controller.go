package core

import "fmt"

// PairSample is one completed memory/compute task pair as observed by
// the runtime: the measured durations plus the completion wall-clock
// (virtual time in simulation, real time on the host runtime).
type PairSample struct {
	Tm  Time // duration of the pair's memory task
	Tc  Time // duration of the pair's compute task
	Now Time // completion instant
	// Class tags the traffic class the pair belongs to (0 for all
	// single-tenant traffic). Class-aware policies aggregate per class;
	// the legacy controllers ignore it.
	Class int
}

// Throttler is the run-time policy interface: it owns the current MTL
// and updates it as pair completions stream in. Implementations:
// Fixed (conventional / offline-selected static MTL), Dynamic (the
// paper's mechanism), and OnlineExhaustive (the naive baseline, §V).
//
// Concurrency contract: MTL() is safe to call from any goroutine at
// any time (implementations back it with an atomic load); every other
// method mutates controller state and must be externally serialized —
// the host runtime takes its controller lock around OnPair and
// degradation, the simulator is single-threaded.
type Throttler interface {
	// Name identifies the policy in reports.
	Name() string
	// MTL reports the currently enforced memory-task limit.
	MTL() int
	// Monitoring reports whether pair instrumentation is active; the
	// scheduler charges measurement overhead only while true.
	Monitoring() bool
	// OnPair feeds one completed pair to the policy. The policy may
	// change MTL() as a result.
	OnPair(s PairSample)
}

// Fixed is a constant-MTL policy. Fixed(n) is the conventional
// interference-oblivious schedule; other values model the Offline
// Exhaustive Search winner.
type Fixed struct {
	K int
}

// Name implements Throttler.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%d)", f.K) }

// MTL implements Throttler.
func (f Fixed) MTL() int { return f.K }

// Monitoring implements Throttler: a static policy measures nothing.
func (f Fixed) Monitoring() bool { return false }

// OnPair implements Throttler.
func (f Fixed) OnPair(PairSample) {}

// Observe implements Policy: a static policy always answers its K.
func (f Fixed) Observe(WindowStats) Decision { return Decision{Limit: f.K} }

// front is how Dynamic and OnlineExhaustive hold the window driver: by
// value, behind the Throttler and Degrader methods and nothing else.
// Embedding PolicyThrottler itself would promote ClassLimit and
// OnSignal, and a runtime that finds those on its throttler turns on
// the per-class admission CAS and the stall signals, which a
// class-blind controller never reads.
type front struct{ drv PolicyThrottler }

// The Throttler methods: MTL is a single atomic load, safe from any
// goroutine; Monitoring holds until the controller is degraded; OnPair
// has the driver guard and window the sample and call Observe at each
// boundary.
func (f *front) MTL() int            { return f.drv.MTL() }
func (f *front) Monitoring() bool    { return f.drv.Monitoring() }
func (f *front) OnPair(s PairSample) { f.drv.OnPair(s) }

// The Degrader methods; Rearm has the driver call Restart.
func (f *front) Health() Health     { return f.drv.Health() }
func (f *front) ForceConventional() { f.drv.ForceConventional() }
func (f *front) Rearm()             { f.drv.Rearm() }

// Dynamic is the paper's run-time memory thread throttling mechanism
// (§IV, Fig. 6): an initial MTL selection, then IdleBound-based phase
// watching that re-triggers selection only when the core idle
// behaviour changes. It is a Policy — the decisions of Observe — in
// front of its own driver.
type Dynamic struct {
	front
	model Model
	opts  DynamicOptions

	limit     int // the MTL being probed or held; the driver publishes it
	sel       *Selector
	watching  bool
	prevIdle  int
	prevRatio float64
	flips     int // consecutive watch windows with a flipped IdleBound

	// Stats for overhead and adaptation reporting. History lists the
	// MTLs decided by finished selections, in order, plus the
	// conventional MTL at each forced fallback — not every limit
	// published on the way (that is PolicyThrottler.History).
	Selections  int
	TotalProbes int
	History     []int
}

// DynamicOptions selects ablation variants of the mechanism. The zero
// value is the paper's design.
type DynamicOptions struct {
	// LinearSearch probes every MTL 1..n per selection instead of the
	// binary search of Fig. 11 (ablation A2).
	LinearSearch bool
	// NaiveRatioTrigger, when positive, re-selects whenever the
	// memory-to-compute ratio moves by more than this relative amount
	// — the fine-grained trigger §IV-B rejects (ablation A1).
	NaiveRatioTrigger float64
	// Hysteresis, when positive, requires that many additional
	// consecutive windows to confirm an IdleBound flip before a new
	// selection starts. It hardens the detector against phase-flip
	// attackers that alternate memory/compute behaviour at exactly the
	// window frequency to keep the controller perpetually re-probing.
	// Zero is the paper's immediate trigger.
	Hysteresis int
}

// NewDynamic builds the dynamic throttler for the given machine model
// and monitor window W (the paper sweeps W in Fig. 15; 16 is adequate
// for its real workloads). Panics on W < 1.
func NewDynamic(model Model, w int) *Dynamic {
	return NewDynamicOpts(model, w, DynamicOptions{})
}

// NewDynamicOpts builds an ablation variant of the dynamic throttler.
func NewDynamicOpts(model Model, w int, opts DynamicOptions) *Dynamic {
	if opts.NaiveRatioTrigger < 0 {
		panic(fmt.Sprintf("core: NaiveRatioTrigger = %g", opts.NaiveRatioTrigger))
	}
	if opts.Hysteresis < 0 {
		panic(fmt.Sprintf("core: Hysteresis = %d", opts.Hysteresis))
	}
	d := &Dynamic{model: model, opts: opts}
	d.drv.init(d, w, model.N)
	d.drv.apply(d.Restart())
	return d
}

// NewHysteresisDMTL builds the thrash-resistant D-MTL variant: the
// paper's mechanism, but an IdleBound flip must persist for h+1
// consecutive windows before it triggers re-selection.
func NewHysteresisDMTL(model Model, w, h int) *Dynamic {
	return NewDynamicOpts(model, w, DynamicOptions{Hysteresis: h})
}

// Name implements Throttler.
func (d *Dynamic) Name() string {
	switch {
	case d.opts.LinearSearch:
		return "dynamic-linear"
	case d.opts.NaiveRatioTrigger > 0:
		return "dynamic-naive-trigger"
	case d.opts.Hysteresis > 0:
		return "dynamic-hyst"
	default:
		return "dynamic"
	}
}

// Watching reports whether the mechanism is in the steady phase-watch
// state (as opposed to actively probing candidate MTLs).
func (d *Dynamic) Watching() bool { return d.watching }

// ForceConventional implements Degrader. The degrading is the
// driver's; Dynamic adds what its own reports show of it: the
// conventional MTL in History, and no longer Watching.
func (d *Dynamic) ForceConventional() {
	if !d.drv.Health().Degraded {
		d.watching = false
		d.History = append(d.History, d.model.N)
	}
	d.drv.ForceConventional()
}

// Restart begins an MTL selection from scratch and answers its first
// probe: at construction, whenever Observe sees the phase change, and
// from the driver when the conventional fallback is lifted.
func (d *Dynamic) Restart() Decision {
	if d.opts.LinearSearch {
		d.sel = NewLinearSelector(d.model)
	} else {
		d.sel = NewSelector(d.model)
	}
	d.watching = false
	d.flips = 0
	d.Selections++
	k, done := d.sel.NextProbe()
	if done {
		panic("core: selector done before any probe")
	}
	d.limit = k
	return d.decision()
}

// Observe implements Policy: the window-boundary decision core of the
// mechanism, called by Dynamic's own driver or by the driver of a
// composite policy layered over it (a blacklist over D-MTL). Either
// has discarded any window whose aggregate is not finite and positive.
func (d *Dynamic) Observe(w WindowStats) Decision {
	m := Measurement{Tm: w.Tm, Tc: w.Tc}
	if d.watching {
		if d.opts.NaiveRatioTrigger > 0 {
			// Ablation: fine-grained trigger on any ratio movement.
			ratio := float64(m.Tm) / float64(m.Tc)
			moved := d.prevRatio > 0 &&
				abs(ratio-d.prevRatio) > d.opts.NaiveRatioTrigger*d.prevRatio
			d.prevRatio = ratio
			if moved {
				return d.Restart()
			}
			return d.decision()
		}
		// Phase detection (§IV-B): trigger a new selection only when
		// the idle behaviour (IdleBound) changes — and, with hysteresis,
		// only once the flip has persisted long enough to be trusted.
		ib := d.model.IdleBound(m.Tm, m.Tc)
		if ib != d.prevIdle {
			d.flips++
			if d.flips > d.opts.Hysteresis {
				return d.Restart()
			}
		} else {
			d.flips = 0
		}
		return d.decision()
	}

	// Selection in progress: this window measured the current probe.
	d.sel.Record(d.limit, m)
	k, done := d.sel.NextProbe()
	if !done {
		d.limit = k
		return d.decision()
	}
	dmtl, _ := d.sel.Decision()
	d.TotalProbes += d.sel.Probes()
	d.limit = dmtl
	d.watching = true
	d.History = append(d.History, dmtl)
	ref := m
	if dm, ok := d.sel.Measured(dmtl); ok {
		ref = dm
	}
	d.prevIdle = d.model.IdleBound(ref.Tm, ref.Tc)
	d.prevRatio = float64(ref.Tm) / float64(ref.Tc)
	return d.decision()
}

// decision snapshots the current limit as a Decision.
func (d *Dynamic) decision() Decision {
	return Decision{Limit: d.limit, Monitoring: true}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// OnlineExhaustive is the naive baseline (§V): it watches the wall
// time of W-pair groups, and when a group deviates from the previous
// one by more than Threshold it re-probes every MTL from 1 to n,
// choosing the one with the fastest group time. No analytical model is
// involved, so it pays n probes per trigger and is vulnerable to
// load-imbalance noise.
type OnlineExhaustive struct {
	front
	model     Model
	threshold float64

	limit    int // the MTL being probed or held; the driver publishes it
	probing  bool
	probeK   int
	bestK    int
	bestSpan Time
	prevSpan Time
	havePrev bool

	// History lists the MTL each finished sweep adopted (cf.
	// Dynamic.History).
	Selections  int
	TotalProbes int
	History     []int
}

// NewOnlineExhaustive builds the baseline with the paper's
// best-performing threshold of 10% unless overridden (threshold <= 0
// selects 0.10). Panics on W < 1.
func NewOnlineExhaustive(model Model, w int, threshold float64) *OnlineExhaustive {
	if threshold <= 0 {
		threshold = 0.10
	}
	o := &OnlineExhaustive{model: model, threshold: threshold}
	o.drv.init(o, w, model.N)
	// The naive method has no model to seed it: it starts with a full
	// probe sweep from MTL=1.
	o.drv.apply(o.Restart())
	return o
}

// Name implements Throttler.
func (o *OnlineExhaustive) Name() string { return "online-exhaustive" }

// Restart begins a fresh probe sweep from MTL=1: at construction, on a
// trigger in Observe, and from the driver when the conventional
// fallback is lifted.
func (o *OnlineExhaustive) Restart() Decision {
	o.probing = true
	o.probeK = 1
	o.bestK = 0
	o.bestSpan = 0
	o.limit = 1
	o.Selections++
	return o.decision()
}

// Observe implements Policy: the baseline's window-boundary logic,
// driven from the window's wall-clock span (End - Start).
func (o *OnlineExhaustive) Observe(w WindowStats) Decision {
	span := w.End - w.Start

	if o.probing {
		o.TotalProbes++
		if o.bestK == 0 || span < o.bestSpan {
			o.bestK, o.bestSpan = o.probeK, span
		}
		if o.probeK < o.model.N {
			o.probeK++
			o.limit = o.probeK
			return o.decision()
		}
		// Sweep finished: adopt the fastest group.
		o.limit = o.bestK
		o.probing = false
		o.havePrev = false
		o.History = append(o.History, o.bestK)
		return o.decision()
	}

	if o.havePrev {
		num := span - o.prevSpan
		if num < 0 {
			num = -num
		}
		if float64(num) > o.threshold*float64(o.prevSpan) {
			return o.Restart()
		}
	}
	o.prevSpan = span
	o.havePrev = true
	return o.decision()
}

// decision snapshots the current limit as a Decision.
func (o *OnlineExhaustive) decision() Decision {
	return Decision{Limit: o.limit, Monitoring: true}
}
