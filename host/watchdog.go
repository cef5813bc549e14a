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
	start   atomic.Int64 // attempt start, UnixNano; 0 = idle
	stalled atomic.Bool  // already flagged; a task stalls at most once
	_       [36]byte
}

// set registers the start of one task attempt. Order matters: the pair
// is published before the start timestamp arms the watchdog.
func (f *flightRec) set(pair int64, class int) {
	f.pair.Store(pair)
	f.class.Store(int64(class))
	f.stalled.Store(false)
	f.start.Store(time.Now().UnixNano())
}

// clear disarms the record after the task returns.
func (f *flightRec) clear() {
	f.start.Store(0)
}

// armWatchdog starts the stall watchdog when Config.StallTimeout asks
// for one. Call before the first worker spawns.
func (p *pool) armWatchdog(recoverAfter int) {
	if p.rt.cfg.StallTimeout <= 0 {
		return
	}
	p.flight = make([]flightRec, len(p.workers))
	go p.watchdog(recoverAfter)
}

// watchdog periodically scans the flight registry for tasks that have
// been running longer than Config.StallTimeout. A flagged task is
// recorded in the pool's stall statistics; once the pool accumulates
// Config.StallFallbackAfter stalls the runtime no longer trusts its
// task timings and degrades gracefully: the Dynamic controller is
// pinned to the conventional MTL (= workers) so a wedged memory task
// can never starve the run through a tight throttle.
//
// recoverAfter > 0 adds the piece a barrier-free server needs —
// recovery. A batch phase ends at its barrier, so degradation only ever
// has to last to the end of the Run (Run passes 0); a server runs
// indefinitely, and a controller pinned to the conventional schedule
// forever after one stall storm would never throttle again. That many
// consecutive clean scans (no task over the stall timeout — the
// attacker stopped or was contained) re-arm the controller and restart
// MTL selection. The watchdog exits when the pool shuts down.
func (p *pool) watchdog(recoverAfter int) {
	r := p.rt
	tick := r.cfg.StallTimeout / 4
	if tick < 200*time.Microsecond {
		tick = 200 * time.Microsecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	clean := 0
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		dirty := false
		for i := range p.flight {
			f := &p.flight[i]
			start := f.start.Load()
			if start == 0 || now-start <= int64(r.cfg.StallTimeout) {
				continue
			}
			dirty = true
			if f.stalled.Load() {
				continue
			}
			f.stalled.Store(true)
			p.wdMu.Lock()
			p.stalls++
			p.stalled = append(p.stalled, f.pair.Load())
			degrade := p.stalls >= int64(r.cfg.StallFallbackAfter)
			p.wdMu.Unlock()
			if r.obs != nil {
				r.obs.OnSignal(int(f.class.Load()), core.SignalStall)
			}
			// The flagged worker may be wedged for good; with lazily
			// spawned workers it could even be the only one alive, so
			// grow the pool by a replacement to keep the work moving.
			p.spawnWorker()
			if degrade && r.setDegraded(true) {
				p.wdMu.Lock()
				p.degraded = true
				p.wdMu.Unlock()
				// The limit widened to the worker count: admit and wake.
				p.q.limitRose()
				p.lot.unparkAll()
			}
		}
		if dirty {
			clean = 0
			continue
		}
		clean++
		if recoverAfter > 0 && clean >= recoverAfter {
			clean = 0
			if r.setDegraded(false) {
				p.wdMu.Lock()
				p.rearms++
				p.wdMu.Unlock()
				p.q.limitRose()
			}
		}
	}
}

// setDegraded pins an adaptive controller (a core.Degrader) to the
// conventional MTL (on), or lifts that fallback and restarts MTL
// selection (off), and mirrors the resulting limit into every gate.
// Reports false when the controller does not adapt or already is in the
// asked-for state.
func (r *Runtime) setDegraded(on bool) bool {
	r.ctrlMu.Lock()
	defer r.ctrlMu.Unlock()
	d, ok := r.th.(core.Degrader)
	if !ok || d.Health().Degraded == on {
		return false
	}
	if on {
		d.ForceConventional()
	} else {
		d.Rearm()
	}
	r.mirrorLimit()
	return true
}
