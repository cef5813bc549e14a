package host

import (
	"sync/atomic"

	"memthrottle/internal/core"
)

// This file holds the striped hot-path counter shards. The principle
// throughout: a counter bumped on the per-task fast path is written
// only to storage owned by the bumping worker (its own cache lines),
// and shared totals are materialised by the infrequent readers — the
// end-of-run Stats merge, or the controller's once-per-window signal
// harvest — by summing the shards. The per-task path therefore never
// takes a contended atomic RMW for observability, which is exactly the
// coherence-traffic pathology the MTL gate exists to avoid in DRAM.

// sigShard is one worker's cumulative signal counters: issue and retry
// counts per traffic class. Exactly two cache lines (8 classes x 8
// bytes per half), so consecutive shards in Runtime.sig can never
// overlap a line regardless of array base alignment, and only the
// owning worker writes its shard. TestLayoutHotStructs pins the size.
type sigShard struct {
	issues  [core.MaxClasses]atomic.Int64
	retries [core.MaxClasses]atomic.Int64
}

// noteIssue records one memory-task admission for class, attributed to
// the admitting worker's slot: a single-writer add on the worker's own
// shard when the controller batches signals, else one per-event
// OnSignal call (the compatibility path for custom Observers).
func (r *Runtime) noteIssue(slot, class int) {
	if r.sig != nil {
		r.sig[slot].issues[class].Add(1)
	} else if r.obs != nil {
		r.obs.OnSignal(class, core.SignalIssue)
	}
}

// noteRetry records one retried task attempt for class (same routing
// as noteIssue).
func (r *Runtime) noteRetry(slot, class int) {
	if r.sig != nil {
		r.sig[slot].retries[class].Add(1)
	} else if r.obs != nil {
		r.obs.OnSignal(class, core.SignalRetry)
	}
}

// SignalTotals implements core.SignalSource: cumulative per-class
// issue/retry totals summed over the per-worker shards. Called by the
// controller once per monitor window (under its own serialization);
// the shard loads race benignly with workers' adds — a count landing
// after the poll is simply harvested by the next window.
func (r *Runtime) SignalTotals(class int) (issues, retries int64) {
	if class < 0 || class >= core.MaxClasses {
		return 0, 0
	}
	for i := range r.sig {
		issues += r.sig[i].issues[class].Load()
		retries += r.sig[i].retries[class].Load()
	}
	return issues, retries
}
