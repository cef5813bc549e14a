package mem

import (
	"testing"
)

// TestCalibratorBadArgs covers the calibrator's error surface.
func TestCalibratorBadArgs(t *testing.T) {
	cfg := DDR3_1066()
	if _, err := NewCalibrator(cfg, 1, footprint512K); err == nil {
		t.Error("NewCalibrator accepted tasksPerStream = 1")
	}
	if _, err := NewCalibrator(cfg, 6, 1); err == nil {
		t.Error("NewCalibrator accepted a sub-line footprint")
	}
	bad := cfg
	bad.Channels = 0
	if _, err := NewCalibrator(bad, 6, footprint512K); err == nil {
		t.Error("NewCalibrator accepted an invalid config")
	}
	c, err := NewCalibrator(cfg, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measure(0); err == nil {
		t.Error("Measure accepted k = 0")
	}
	if _, err := c.Calibrate(1); err == nil {
		t.Error("Calibrate accepted maxK = 1")
	}
}
