package mem

import "memthrottle/internal/sim"

// Calibrator fixes one DRAM configuration and measurement methodology
// (tasksPerStream, footprint) for Calibrate and MeasureTaskTime, so
// every point it measures is comparable. Each call measures on fresh
// engines, exactly as the package functions do.
type Calibrator struct {
	cfg            Config
	tasksPerStream int
	footprint      int
}

// NewCalibrator checks the configuration and the methodology
// parameters and returns a calibrator for them.
func NewCalibrator(cfg Config, tasksPerStream, footprint int) (*Calibrator, error) {
	if err := validateMeasure(cfg, 1, tasksPerStream, footprint); err != nil {
		return nil, err
	}
	return &Calibrator{cfg: cfg, tasksPerStream: tasksPerStream, footprint: footprint}, nil
}

// Measure is MeasureTaskTime at MTL = k.
func (c *Calibrator) Measure(k int) (sim.Time, error) {
	return MeasureTaskTime(c.cfg, k, c.tasksPerStream, c.footprint)
}

// Calibrate is Calibrate over k = 1..maxK.
func (c *Calibrator) Calibrate(maxK int) (Calibration, error) {
	return Calibrate(c.cfg, maxK, c.tasksPerStream, c.footprint)
}
