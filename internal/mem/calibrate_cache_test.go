package mem

import (
	"sync"
	"testing"
)

// footprint512K mirrors workload.Footprint (importing workload here
// would create an import cycle through contend).
const footprint512K = 512 << 10

// TestCalibrateCachedDeduplicates asserts that repeated and concurrent
// requests for the same configuration perform exactly one measurement
// sweep, that distinct configurations are cached independently, and
// that a narrower fit reuses a wider one's points.
func TestCalibrateCachedDeduplicates(t *testing.T) {
	cfg := DDR3_1066()
	cfg.Seed = 424242 // private key: other tests must not pre-warm it

	before := CalibrateRuns()
	first, err := CalibrateCached(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if got := CalibrateRuns() - before; got != 1 {
		t.Fatalf("first request ran %d calibrations, want 1", got)
	}

	var wg sync.WaitGroup
	results := make([]Calibration, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cal, err := CalibrateCached(cfg, 4, 6, footprint512K)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = cal
		}(i)
	}
	wg.Wait()
	if got := CalibrateRuns() - before; got != 1 {
		t.Errorf("after 8 concurrent repeats: %d calibrations, want 1", got)
	}
	for i, cal := range results {
		if cal.Tml != first.Tml || cal.Tql != first.Tql || cal.R2 != first.R2 {
			t.Errorf("result %d differs from first: %+v vs %+v", i, cal, first)
		}
	}

	// A different configuration must miss.
	cfg2 := cfg
	cfg2.HitStreakCap = cfg.HitStreakCap + 1
	if _, err := CalibrateCached(cfg2, 4, 6, footprint512K); err != nil {
		t.Fatal(err)
	}
	if got := CalibrateRuns() - before; got != 2 {
		t.Errorf("distinct config did not measure: %d calibrations, want 2", got)
	}

	// Mutating a returned Tm slice must not poison the cache.
	first.Tm[0] = -1
	again, err := CalibrateCached(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if again.Tm[0] == -1 {
		t.Error("cached calibration shares Tm storage with callers")
	}

	// The memo is per point: once a configuration is fitted to maxK = 8,
	// a maxK = 4 fit of it simulates nothing and is built from the same
	// first four points.
	cfg3 := cfg
	cfg3.Seed = 434343
	before = CalibrateRuns()
	wide, err := CalibrateCached(cfg3, 8, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if got := CalibrateRuns() - before; got != 1 {
		t.Fatalf("maxK=8 fit ran %d calibrations, want 1", got)
	}
	narrow, err := CalibrateCached(cfg3, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if got := CalibrateRuns() - before; got != 1 {
		t.Errorf("maxK=4 fit after maxK=8 simulated: %d calibrations, want 1", got)
	}
	if len(narrow.Tm) != 4 {
		t.Fatalf("maxK=4 fit has %d points, want 4", len(narrow.Tm))
	}
	for k, tm := range narrow.Tm {
		if tm != wide.Tm[k] {
			t.Errorf("Tm[%d] = %v, maxK=8 fit measured %v", k, tm, wide.Tm[k])
		}
	}
}

// TestCalibrateParallelMatchesSerial pins the determinism of the
// fanned-out per-k measurement: Calibrate with any worker budget must
// reproduce the serial fit bit for bit, because each MeasureTaskTime
// runs on its own engine seeded only by the config.
func TestCalibrateParallelMatchesSerial(t *testing.T) {
	cfg := DDR3_1066()
	a, err := Calibrate(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(cfg, 4, 6, footprint512K)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tml != b.Tml || a.Tql != b.Tql || a.R2 != b.R2 {
		t.Errorf("repeated calibration differs: %+v vs %+v", a, b)
	}
	for k := range a.Tm {
		if a.Tm[k] != b.Tm[k] {
			t.Errorf("Tm[%d] differs: %v vs %v", k, a.Tm[k], b.Tm[k])
		}
	}
}
