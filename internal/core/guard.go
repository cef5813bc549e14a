package core

import "math"

// Health summarises a controller's measurement-guard activity: how
// many pair samples survived validation, how many were winsorized or
// rejected outright, how many probe windows had to be thrown away, and
// whether the controller has been forced into its conventional
// fallback. The runtime exposes it so operators can tell a healthy
// controller from one surviving on guard rails.
type Health struct {
	// Kept counts samples admitted unmodified.
	Kept int
	// Clamped counts samples whose Tm was winsorized to the outlier
	// bound before entering the monitor window.
	Clamped int
	// Dropped counts samples rejected outright (non-finite or
	// non-positive measurements).
	Dropped int
	// DiscardedWindows counts monitor windows thrown away because
	// their aggregate measurement was unusable.
	DiscardedWindows int
	// Fallbacks counts forced conventional fallbacks (ForceConventional).
	Fallbacks int
	// Degraded reports whether the controller is currently pinned to
	// the conventional MTL.
	Degraded bool
}

// outlierFactor bounds how far a single Tm sample may sit above the
// running estimate before it is winsorized. Memory-task latencies
// under contention vary by small integer factors (the calibrated
// contention law tops out near Tm_n/Tm_1 ≈ 2); a sample an order of
// magnitude beyond the running mean is a measurement artifact — a
// descheduled thread, a noisy neighbor, a timer glitch — not a phase
// change. Compute times are deliberately NOT winsorized: a large Tc
// shift is exactly the phase-change signal the detector must see.
const outlierFactor = 16

// ewmaAlpha is the smoothing weight of the guard's running Tm
// estimate. It trails fast enough to follow genuine phase changes
// within a window yet holds steady against isolated spikes.
const ewmaAlpha = 0.25

// guard validates pair samples before they reach a controller's
// monitor window: non-finite or non-positive measurements are dropped,
// and Tm outliers far beyond the running estimate are winsorized so a
// single polluted measurement cannot drive the MTL search to a
// pathological limit.
type guard struct {
	h      Health
	tmEwma float64
}

// finitePositive reports whether t is a usable duration sample. The
// one comparison pair rejects NaN (every comparison false), both
// infinities, zero and negatives.
func finitePositive(t Time) bool { return t > 0 && t <= math.MaxFloat64 }

// admit validates s, winsorizing it in place if need be, and reports
// whether it may enter the monitor window.
func (g *guard) admit(s *PairSample) bool {
	// Now may be zero or negative, but not NaN or infinite.
	if !finitePositive(s.Tm) || !finitePositive(s.Tc) || !(s.Now >= -math.MaxFloat64 && s.Now <= math.MaxFloat64) {
		g.h.Dropped++
		return false
	}
	tm := float64(s.Tm)
	if g.tmEwma > 0 && tm > outlierFactor*g.tmEwma {
		tm = outlierFactor * g.tmEwma
		s.Tm = Time(tm)
		g.h.Clamped++
	} else {
		g.h.Kept++
	}
	if g.tmEwma == 0 {
		g.tmEwma = tm
	} else {
		g.tmEwma += ewmaAlpha * (tm - g.tmEwma)
	}
	return true
}
