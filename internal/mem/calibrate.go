package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memthrottle/internal/parallel"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// MeasureTaskTime runs k concurrent closed-loop streams of memory
// tasks through a fresh DRAM system and returns the steady-state mean
// task duration. Each stream performs tasksPerStream back-to-back
// tasks of footprint bytes over disjoint address regions; the first
// task of every stream is discarded as warm-up. This is the simulated
// analogue of the paper measuring Tm_k with gettimeofday() while MTL=k
// (§V): k is exactly the number of memory tasks in flight.
func MeasureTaskTime(cfg Config, k, tasksPerStream int, footprint int) (sim.Time, error) {
	if err := validateMeasure(cfg, k, tasksPerStream, footprint); err != nil {
		return 0, err
	}
	eng := sim.NewWheel()
	sys := NewSystem(eng, cfg)
	return sim.Time(stats.Mean(measureStreams(eng, sys, k, tasksPerStream, footprint))), nil
}

// validateMeasure checks one measurement request's arguments.
func validateMeasure(cfg Config, k, tasksPerStream, footprint int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if k < 1 {
		return fmt.Errorf("mem: MeasureTaskTime k = %d, want >= 1", k)
	}
	if tasksPerStream < 2 {
		return fmt.Errorf("mem: MeasureTaskTime needs >= 2 tasks per stream for warm-up trimming, got %d", tasksPerStream)
	}
	if footprint/cfg.LineBytes < 1 {
		return fmt.Errorf("mem: footprint %d smaller than one line (%d)", footprint, cfg.LineBytes)
	}
	return nil
}

// measureStreams drives k closed-loop streams of tasksPerStream tasks
// each through sys and returns the post-warm-up task durations. The
// engine must be at time zero with an empty queue and sys freshly
// built or Reset: given that, the event sequence — and therefore every
// measured duration — is a pure function of (sys.cfg, k,
// tasksPerStream, footprint), identical whether the underlying
// allocations are new or reused.
func measureStreams(eng *sim.Engine, sys *System, k, tasksPerStream, footprint int) []float64 {
	var durations []float64
	startStreams(eng, sys, k, tasksPerStream, footprint, &durations)
	eng.Run()
	return durations
}

// startStreams launches measureStreams' k streams without running the
// engine; each post-warm-up task appends its duration to *durations as
// it finishes.
func startStreams(eng *sim.Engine, sys *System, k, tasksPerStream, footprint int, durations *[]float64) {
	cfg := sys.Config()
	lines := footprint / cfg.LineBytes
	// Worker state machine: run task i, then task i+1, ...
	var launch func(worker, task int)
	linesPerRow := cfg.RowBytes / cfg.LineBytes
	rowsPerTask := (lines + linesPerRow - 1) / linesPerRow
	region := func(worker, task int) uint64 {
		// Disjoint, row-aligned regions. The +1 row of slack breaks
		// the bank-alignment that would otherwise march every stream
		// through the same bank sequence in lockstep (a convoy the
		// real machine's physical page allocation never produces).
		idx := uint64(worker*tasksPerStream + task)
		return idx * uint64(rowsPerTask+1) * uint64(cfg.RowBytes)
	}
	launch = func(worker, task int) {
		if task >= tasksPerStream {
			return
		}
		start := eng.Now()
		sys.StartStream(region(worker, task), lines, func(finished sim.Time) {
			if task > 0 { // skip warm-up task
				*durations = append(*durations, float64(finished-start))
			}
			launch(worker, task+1)
		})
	}
	for w := 0; w < k; w++ {
		launch(w, 0)
	}
}

// Calibration is the result of fitting the paper's contention law
// Tm_k = Tml + k*Tql to measured steady-state task times.
type Calibration struct {
	Tml     sim.Time   // contention-free component (fit intercept)
	Tql     sim.Time   // queueing latency per concurrent task (fit slope)
	R2      float64    // goodness of the linear fit
	Tm      []sim.Time // Tm[k-1] = measured mean task time under k streams
	Tasklet int        // footprint bytes per task used during calibration
}

// TmK returns the fitted mean memory-task time under k concurrent
// tasks for the calibration footprint.
func (c Calibration) TmK(k int) sim.Time {
	return c.Tml + sim.Time(k)*c.Tql
}

// PerByte returns the fitted (tml, tql) normalised per byte of task
// footprint, for scaling to other footprints in the fluid model.
func (c Calibration) PerByte() (tml, tql float64) {
	f := float64(c.Tasklet)
	return float64(c.Tml) / f, float64(c.Tql) / f
}

// Calibrate measures task times for k = 1..maxK concurrent streams and
// fits the linear contention law. footprint is the per-task transfer
// size in bytes (the paper keeps it below the per-core LLC share, e.g.
// 0.5–2 MB); tasksPerStream controls measurement length.
//
// The per-k measurements run on independent simulation engines, so
// they fan out across the process's parallel worker budget; results
// are assembled in k order and the fit is identical to a serial
// calibration.
func Calibrate(cfg Config, maxK, tasksPerStream, footprint int) (Calibration, error) {
	return fitPoints(maxK, footprint, func(k int) (sim.Time, bool, error) {
		tm, err := MeasureTaskTime(cfg, k, tasksPerStream, footprint)
		return tm, true, err
	})
}

// fitPoints fans the points k = 1..maxK out across the parallel worker
// budget, assembles them in k order and fits the law. point reports
// each point's task time and whether it simulated to get it; a call
// that simulated any point counts in CalibrateRuns.
func fitPoints(maxK, footprint int, point func(k int) (tm sim.Time, simulated bool, err error)) (Calibration, error) {
	if maxK < 2 {
		return Calibration{}, fmt.Errorf("mem: Calibrate needs maxK >= 2 to fit a line, got %d", maxK)
	}
	type outcome struct {
		tm        sim.Time
		simulated bool
		err       error
	}
	measured := parallel.Map(0, maxK, func(i int) outcome {
		tm, simulated, err := point(i + 1)
		return outcome{tm, simulated, err}
	})
	for _, o := range measured {
		if o.simulated {
			calibrateRuns.Add(1)
			break
		}
	}
	cal := Calibration{Tasklet: footprint, Tm: make([]sim.Time, 0, maxK)}
	for _, o := range measured {
		if o.err != nil {
			return Calibration{}, o.err
		}
		cal.Tm = append(cal.Tm, o.tm)
	}
	if err := cal.fit(); err != nil {
		return Calibration{}, err
	}
	return cal, nil
}

// fit fills the linear-law parameters from the measured Tm series.
func (c *Calibration) fit() error {
	xs := make([]float64, len(c.Tm))
	ys := make([]float64, len(c.Tm))
	for i, tm := range c.Tm {
		xs[i] = float64(i + 1)
		ys[i] = float64(tm)
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return err
	}
	c.Tml = sim.Time(fit.Intercept)
	c.Tql = sim.Time(fit.Slope)
	c.R2 = fit.R2
	return nil
}

// calibrateRuns counts calibrations that simulated at least one point;
// tests use it to assert the cache actually deduplicates work.
var calibrateRuns atomic.Uint64

// CalibrateRuns reports how many calibrations in this process have
// simulated at least one point: every Calibrate call, and every
// CalibrateCached call that found a point not yet measured.
func CalibrateRuns() uint64 { return calibrateRuns.Load() }

// pointKey identifies one measured point of a calibration. Config is a
// flat value type, so the whole tuple is comparable.
type pointKey struct {
	cfg            Config
	k              int
	tasksPerStream int
	footprint      int
}

// pointEntry is a singleflight slot: the first requester measures,
// every later requester waits on once and reads the shared result.
type pointEntry struct {
	once sync.Once
	tm   sim.Time
	err  error
}

var (
	pointsMu sync.Mutex
	points   = map[pointKey]*pointEntry{}
)

// CalibrateCached is Calibrate over a process-wide memo of measured
// points, keyed by (cfg, k, tasksPerStream, footprint). A point is
// deterministic in its inputs (every RNG inside is seeded from
// cfg.Seed), so each is simulated exactly once per process no matter
// how many environments, tests, CLI entry points or fits of different
// maxK request it: a maxK = 4 fit of a configuration already fitted to
// maxK = 8 simulates nothing. Concurrent requests for the same point
// share one measurement; the points of one call still fan out across
// the worker budget, and the fit is Calibrate's.
func CalibrateCached(cfg Config, maxK, tasksPerStream, footprint int) (Calibration, error) {
	return fitPoints(maxK, footprint, func(k int) (sim.Time, bool, error) {
		key := pointKey{cfg, k, tasksPerStream, footprint}
		pointsMu.Lock()
		e := points[key]
		if e == nil {
			e = &pointEntry{}
			points[key] = e
		}
		pointsMu.Unlock()
		simulated := false
		e.once.Do(func() {
			e.tm, e.err = MeasureTaskTime(key.cfg, key.k, key.tasksPerStream, key.footprint)
			simulated = true
		})
		return e.tm, simulated, e.err
	})
}
