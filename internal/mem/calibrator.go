package mem

import (
	"fmt"

	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// Calibrator sweeps MTL points on one reusable simulation: a single
// engine and DRAM system are built once, and every measurement resets
// them instead of reallocating — the event queue's backing arrays, the
// event and request free lists, the bank array and the per-bank
// request rings all stay warm across points. Because a Reset engine
// and system are bit-identical to freshly built ones, each measurement
// reproduces MeasureTaskTime exactly; what changes is the cost of
// moving to an adjacent MTL point, which drops from a full
// re-calibration of every level (the only route the one-shot Calibrate
// API offers) to a single measurement plus an O(maxK) refit.
//
// This is the offline analogue of the paper's D-MTL controller
// (§IV-C) exploiting the smoothness of Tm_k in k: sweep contexts visit
// neighbouring k values back to back, so the calibrator memoises every
// measured point and Calibrate(maxK) only simulates the ones still
// missing.
//
// A Calibrator is not safe for concurrent use: it owns exactly one
// simulation. Independent goroutines should each build their own, or
// use the process-wide CalibrateCached front end.
type Calibrator struct {
	cfg            Config
	tasksPerStream int
	footprint      int
	eng            *sim.Engine
	sys            *System
	durations      []float64        // reusable measurement buffer
	tm             map[int]sim.Time // measured task time per MTL point
}

// NewCalibrator builds a calibrator for one DRAM configuration. The
// measurement methodology parameters (tasksPerStream, footprint) are
// fixed at construction so every point of the sweep is comparable.
func NewCalibrator(cfg Config, tasksPerStream, footprint int) (*Calibrator, error) {
	if err := validateMeasure(cfg, 1, tasksPerStream, footprint); err != nil {
		return nil, err
	}
	eng := sim.NewWheel()
	return &Calibrator{
		cfg:            cfg,
		tasksPerStream: tasksPerStream,
		footprint:      footprint,
		eng:            eng,
		sys:            NewSystem(eng, cfg),
		tm:             make(map[int]sim.Time),
	}, nil
}

// Config returns the calibrator's DRAM configuration.
func (c *Calibrator) Config() Config { return c.cfg }

// Measured returns the memoised task time at MTL = k, if that point
// has been measured.
func (c *Calibrator) Measured(k int) (sim.Time, bool) {
	tm, ok := c.tm[k]
	return tm, ok
}

// Measure runs the steady-state task-time measurement at MTL = k on
// the warm simulation state and memoises the result. It always
// simulates (callers wanting the memo should check Measured first or
// go through Calibrate); the returned value is bit-identical to
// MeasureTaskTime(cfg, k, tasksPerStream, footprint).
func (c *Calibrator) Measure(k int) (sim.Time, error) {
	if k < 1 {
		return 0, fmt.Errorf("mem: Calibrator.Measure k = %d, want >= 1", k)
	}
	c.eng.Reset()
	c.sys.Reset()
	c.durations = measureStreams(c.eng, c.sys, k, c.tasksPerStream, c.footprint, c.durations[:0])
	tm := sim.Time(stats.Mean(c.durations))
	c.tm[k] = tm
	return tm, nil
}

// Calibrate returns the contention-law fit over k = 1..maxK, measuring
// only the points not already memoised. Extending a previous sweep to
// an adjacent maxK therefore costs one measurement; the fit itself is
// identical to the one-shot Calibrate's for the same inputs.
func (c *Calibrator) Calibrate(maxK int) (Calibration, error) {
	if maxK < 2 {
		return Calibration{}, fmt.Errorf("mem: Calibrate needs maxK >= 2 to fit a line, got %d", maxK)
	}
	simulated := false
	cal := Calibration{Tasklet: c.footprint, Tm: make([]sim.Time, 0, maxK)}
	for k := 1; k <= maxK; k++ {
		tm, ok := c.tm[k]
		if !ok {
			var err error
			if tm, err = c.Measure(k); err != nil {
				return Calibration{}, err
			}
			simulated = true
		}
		cal.Tm = append(cal.Tm, tm)
	}
	if simulated {
		calibrateRuns.Add(1)
	}
	if err := cal.fit(); err != nil {
		return Calibration{}, err
	}
	return cal, nil
}
