package host

import (
	"sync/atomic"
	"time"

	"memthrottle/internal/core"
)

// flightRec tracks one worker's in-flight task for the stall watchdog.
// All fields are atomics: the worker publishes set/clear without taking
// any lock, and the watchdog scans without stopping the world. The pad
// strides the record to a full cache line: records live in one
// per-worker array and set/clear run once per task attempt, so two
// unpadded records per line would make every worker's attempt
// bookkeeping invalidate its neighbour's.
type flightRec struct {
	pair    atomic.Int64
	class   atomic.Int64 // traffic class, for the stall signal
	start   atomic.Int64 // attempt start reading (nowNs, never 0); 0 = idle
	stalled atomic.Bool  // already flagged; a task stalls at most once
	_       [36]byte
}

// set registers the start of one task attempt at the reading that
// starts it, so an armed watchdog costs the task path no clock read of
// its own. Order matters: the pair is published before the start
// timestamp arms the watchdog.
func (f *flightRec) set(pair int64, class int, startNs int64) {
	f.pair.Store(pair)
	f.class.Store(int64(class))
	f.stalled.Store(false)
	f.start.Store(startNs)
}

// clear disarms the record after the task returns.
func (f *flightRec) clear() {
	f.start.Store(0)
}

// armWatchdog starts the stall watchdog when Config.StallTimeout asks
// for one. Call before the first worker spawns.
func (p *pool) armWatchdog() {
	if p.rt.cfg.StallTimeout <= 0 {
		return
	}
	p.flight = make([]flightRec, len(p.workers))
	go p.watchdog()
}

// watchdog periodically scans the flight registry for tasks that have
// been running longer than Config.StallTimeout. A flagged task is
// recorded in the pool's stall statistics; once the pool accumulates
// stallFallbackAfter stalls the runtime no longer trusts its
// task timings and degrades gracefully: the adaptive controller is
// pinned to the conventional MTL (= workers) for the rest of its life,
// so a wedged memory task can never starve the work through a tight
// throttle. The watchdog exits when the pool shuts down.
func (p *pool) watchdog() {
	r := p.rt
	tick := r.cfg.StallTimeout / 4
	if tick < 200*time.Microsecond {
		tick = 200 * time.Microsecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		now := nowNs()
		for i := range p.flight {
			f := &p.flight[i]
			start := f.start.Load()
			if start == 0 || now-start <= int64(r.cfg.StallTimeout) || f.stalled.Load() {
				continue
			}
			f.stalled.Store(true)
			p.wdMu.Lock()
			p.stalls++
			p.stalled = append(p.stalled, f.pair.Load())
			degrade := p.stalls >= stallFallbackAfter
			p.wdMu.Unlock()
			if r.obs != nil {
				r.obs.OnSignal(int(f.class.Load()), core.SignalStall)
			}
			// The flagged worker may be wedged for good; with lazily
			// spawned workers it could even be the only one alive, so
			// grow the pool by a replacement to keep the work moving.
			p.spawnWorker()
			if degrade && r.degrade() {
				p.wdMu.Lock()
				p.degraded = true
				p.wdMu.Unlock()
				// The limit widened to the worker count: wake and grow.
				p.limitRose()
			}
		}
	}
}

// degrade pins an adaptive controller (a core.Degrader) to the
// conventional MTL and mirrors the resulting limit into every gate.
// Reports false when the controller does not adapt or already is
// degraded.
func (r *Runtime) degrade() bool {
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	d, ok := r.th.(core.Degrader)
	if !ok || d.Health().Degraded {
		return false
	}
	d.ForceConventional()
	r.mirrorLimit()
	return true
}
