// Package contend implements a fluid (processor-sharing) model of
// memory-task contention. Request-level DRAM simulation (internal/mem)
// is accurate but too slow for full-program runs over hundreds of
// workload configurations; this package abstracts it to the law the
// calibration fits:
//
//	time(F bytes @ concurrency a) = F * (tml + a*tql)  per byte
//
// where a is the instantaneous total weight of active actors. When
// membership changes mid-task, progress integrates piecewise — which
// also models the "non-steady state" transients the paper credits for
// its small model errors (§VI-A). Cross-validation tests assert the
// fluid model tracks the request-level simulator.
package contend

import (
	"fmt"

	"memthrottle/internal/mem"
	"memthrottle/internal/sim"
)

// Params are the per-byte contention coefficients, normally obtained
// from a DRAM calibration fit.
type Params struct {
	TmlPerByte float64 // seconds per byte, contention-free component
	TqlPerByte float64 // seconds per byte added per unit of concurrency
}

// FromCalibration converts a request-level calibration into fluid
// parameters.
func FromCalibration(cal mem.Calibration) Params {
	tml, tql := cal.PerByte()
	return Params{TmlPerByte: tml, TqlPerByte: tql}
}

// Validate reports a parameter error, if any.
func (p Params) Validate() error {
	if p.TmlPerByte <= 0 || p.TqlPerByte < 0 {
		return fmt.Errorf("contend: params %+v, want TmlPerByte > 0 and TqlPerByte >= 0", p)
	}
	return nil
}

// TaskTime reports the duration of a memory task of the given
// footprint under constant concurrency a.
func (p Params) TaskTime(footprintBytes float64, a float64) sim.Time {
	return sim.Time(footprintBytes * (p.TmlPerByte + a*p.TqlPerByte))
}

// Pool tracks the set of active memory actors and advances their
// progress under the fluid contention law: a sim.Shared server in bytes
// whose time per byte is tml + a*tql. The server is the mechanism
// (piecewise integration, completion order, allocation-free recycling);
// the pool owns the law's parameters and the argument checks.
type Pool struct {
	params Params
	srv    *sim.Shared
}

// NewPool creates a pool bound to the engine. Invalid params panic:
// they are a construction-time programming error.
func NewPool(eng *sim.Engine, params Params) *Pool {
	p := &Pool{srv: sim.NewShared(eng, 0, 0)}
	p.Reset(params)
	return p
}

// Reset returns the pool to the state NewPool(eng, params) builds,
// keeping its scratch slices and recycled transfer shells, so one pool can
// serve run after run. The engine must have been reset first: actors
// still in flight are dropped without their callbacks and the pending
// completion event is forgotten, not cancelled. Invalid params panic.
func (p *Pool) Reset(params Params) {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	p.params = params
	p.srv.Reset(params.TmlPerByte, params.TqlPerByte)
}

// Params returns the pool's contention coefficients.
func (p *Pool) Params() Params { return p.params }

// Count reports the number of active actors.
func (p *Pool) Count() int { return p.srv.Count() }

// ActiveWeight reports the summed weight of active actors (the "a" in
// the contention law).
func (p *Pool) ActiveWeight() float64 { return p.srv.Weight() }

// Started and Completed report lifetime actor counts.
func (p *Pool) Started() uint64   { return p.srv.Started() }
func (p *Pool) Completed() uint64 { return p.srv.Completed() }

// StartFunc adds a transfer of footprintBytes with the given
// concurrency weight; at completion it calls fn(arg) — fn typically a
// method value created once, arg the per-transfer state. Weight is 1
// for a memory task; compute tasks with LLC-overflow miss traffic join
// with their miss fraction as weight. A nil fn means no callback and
// wants a nil arg. Panics on non-positive footprint or weight out of
// (0, 1].
func (p *Pool) StartFunc(footprintBytes, weight float64, fn func(any), arg any) {
	checkStart(footprintBytes, weight)
	p.srv.StartFunc(footprintBytes, weight, fn, arg)
}

// Start is StartFunc for a closure: done (may be nil) fires at
// completion.
func (p *Pool) Start(footprintBytes, weight float64, done func()) {
	checkStart(footprintBytes, weight)
	p.srv.Start(footprintBytes, weight, done)
}

func checkStart(footprintBytes, weight float64) {
	if footprintBytes <= 0 {
		panic(fmt.Sprintf("contend: Start with footprint %g", footprintBytes))
	}
	if weight <= 0 || weight > 1 {
		panic(fmt.Sprintf("contend: Start with weight %g, want (0, 1]", weight))
	}
}
