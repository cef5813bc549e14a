package mem

import (
	"testing"
)

// TestCalibratorMatchesColdCalibrate is the warm-start determinism
// contract: a Calibrator sweep on reused engine state must reproduce
// the one-shot Calibrate fit bit for bit — same per-k measurements,
// same fitted law. Everything downstream (fluid parameters, every
// figure) inherits byte-identical output from this.
func TestCalibratorMatchesColdCalibrate(t *testing.T) {
	cfg := DDR3_1066()
	cold, err := Calibrate(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCalibrator(cfg, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Calibrate(4)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Tml != cold.Tml || warm.Tql != cold.Tql || warm.R2 != cold.R2 || warm.Tasklet != cold.Tasklet {
		t.Errorf("warm fit differs from cold: warm %+v, cold %+v", warm, cold)
	}
	if len(warm.Tm) != len(cold.Tm) {
		t.Fatalf("warm measured %d points, cold %d", len(warm.Tm), len(cold.Tm))
	}
	for k := range cold.Tm {
		if warm.Tm[k] != cold.Tm[k] {
			t.Errorf("Tm[%d]: warm %v != cold %v", k, warm.Tm[k], cold.Tm[k])
		}
	}
}

// TestCalibratorMeasureIsOrderIndependent pins that reuse carries no
// state between measurements: measuring k values in any order, or
// re-measuring a point after others ran in between, reproduces the
// fresh-engine MeasureTaskTime value exactly.
func TestCalibratorMeasureIsOrderIndependent(t *testing.T) {
	cfg := DDR3_1066()
	c, err := NewCalibrator(cfg, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	order := []int{3, 1, 4, 2, 3} // revisit 3 after other points ran
	for _, k := range order {
		warm, err := c.Measure(k)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := MeasureTaskTime(cfg, k, 6, footprint512K)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Errorf("Measure(%d) = %v on warm state, want fresh-engine value %v", k, warm, cold)
		}
	}
}

// TestCalibratorExtendsIncrementally asserts the sweep-extension
// contract: after Calibrate(maxK), extending to maxK+1 simulates
// exactly one new point.
func TestCalibratorExtendsIncrementally(t *testing.T) {
	cfg := DDR3_1066()
	cfg.Seed = 515151 // private key: keep the run counter honest
	c, err := NewCalibrator(cfg, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Calibrate(3); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		if _, ok := c.Measured(k); !ok {
			t.Fatalf("point k=%d not memoised after Calibrate(3)", k)
		}
	}
	if _, ok := c.Measured(4); ok {
		t.Fatal("point k=4 memoised before it was requested")
	}
	ext, err := c.Calibrate(4)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Calibrate(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Tml != cold.Tml || ext.Tql != cold.Tql || ext.R2 != cold.R2 {
		t.Errorf("extended fit %+v differs from cold full sweep %+v", ext, cold)
	}

	// A re-fit with no missing points must not simulate at all.
	before := CalibrateRuns()
	if _, err := c.Calibrate(4); err != nil {
		t.Fatal(err)
	}
	if got := CalibrateRuns() - before; got != 0 {
		t.Errorf("memoised refit ran %d sweeps, want 0", got)
	}
}

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
