package host

import "runtime"

// Spin-then-park, stated in λ — the lot's measured wake latency
// (lot.wakeNs): token sent → blocked worker running again. A worker
// that finds nothing runnable enqueues in the lot and, before blocking
// on its token, polls the token and the discipline's ready() for a
// bounded budget. Blocking costs the next record about λ and both sides
// a futex call, so — the ski-rental argument — the worker spins for up
// to about what the round trip would cost before paying it, and not at
// all once its own idle gaps (an EWMA per worker) run to several λ.
// Until a first blocked park has measured λ the budget is zero. The lot
// caps concurrent spinners at half the schedulable parallelism, hence
// at zero on GOMAXPROCS=1, where spinning can only delay the goroutine
// that would publish the work being waited for.
//
// The spin runs inside the lot protocol: the worker is already
// enqueued, so a token sent mid-spin is consumed by the spin's
// non-blocking poll, and a budget that expires falls through to the
// blocking park.

// The multiples of λ. On the 2-vCPU box λ reads p50 75-135 µs by the
// day (p10 1.5-6 µs: the sleeper's thread was still spinning in the Go
// scheduler), so these are ~3, ~200 and ~800 µs where the constants they
// replace were 2, 16 and 64 µs. Sized on host_stream: under a 16 µs
// ceiling a worker waiting out the other's ~150 µs gather always blocked
// and paid λ per pair; 128/512 µs (1.6λ/6λ) with the wake rule read
// 1.6-2.5x, and neither half alone did.
const (
	// spinInitDiv: a worker with no idle gap measured yet spins λ/32.
	spinInitDiv = 32
	// spinMaxWakes bounds one pre-park spin at 2λ, about one park/unpark
	// round trip.
	spinMaxWakes = 2
	// spinCutoffWakes stops spinning once the EWMA idle gap passes 8λ:
	// the budget would expire fruitlessly on (nearly) every cycle.
	spinCutoffWakes = 8
	// spinYieldEvery inserts a runtime.Gosched every this many probe
	// iterations, so a spinning worker cannot monopolise its P against
	// the very goroutine that would hand it work.
	spinYieldEvery = 16
)

// spinBudgetNs derives one pre-park spin budget from gap, the worker's
// smoothed recent idle-gap duration, and lambda, both in nanoseconds.
func spinBudgetNs(gap, lambda int64) int64 {
	if gap > spinCutoffWakes*lambda {
		return 0
	}
	return min(max(2*gap, lambda/spinInitDiv), spinMaxWakes*lambda)
}

// fold folds one sample into an EWMA (weight 1/4 on the new sample —
// reactive enough to shut spinning off within a few long parks, smooth
// enough to ride out one outlier). Idle gaps and λ both use it.
func fold(ewma, sample int64) int64 {
	return (3*ewma + sample) / 4
}

// spinnerCap is the lot-wide concurrent-spinner bound: half the
// schedulable parallelism, hence zero on a single processor.
func spinnerCap() int64 {
	return int64(runtime.GOMAXPROCS(0)) / 2
}
