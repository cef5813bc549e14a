package experiments

import (
	"testing"

	"memthrottle/internal/core"
	"memthrottle/internal/simsched"
)

// freshEnv builds an environment with a private static-MTL memo so run
// counting and determinism checks cannot be polluted by the shared
// test env. Calibration is served from the process-wide cache, so
// this is cheap after the first environment of the process.
func freshEnv(t *testing.T, workers int) Env {
	t.Helper()
	e, err := DefaultEnv(true)
	if err != nil {
		t.Fatal(err)
	}
	return e.WithWorkers(workers)
}

// TestParallelTablesByteIdentical is the determinism guarantee of the
// run engine: a Fig. 13 sweep and the Fig. 14 grid rendered from a
// serial environment and from a 4-worker environment must match byte
// for byte in every output format.
func TestParallelTablesByteIdentical(t *testing.T) {
	serial := freshEnv(t, 1)
	par := freshEnv(t, 4)

	builds := []struct {
		name string
		run  func(Env) Table
	}{
		{"F13-quick", func(e Env) Table {
			tab, err := Fig13(e, 512<<10, 0.3, 1.5, 0.4, 32)
			if err != nil {
				t.Fatal(err)
			}
			return tab
		}},
		{"F14", Fig14},
	}
	for _, b := range builds {
		ts := b.run(serial)
		tp := b.run(par)
		for _, format := range []string{"text", "json"} {
			s, err := ts.Render(format)
			if err != nil {
				t.Fatalf("%s serial %s render: %v", b.name, format, err)
			}
			p, err := tp.Render(format)
			if err != nil {
				t.Fatalf("%s parallel %s render: %v", b.name, format, err)
			}
			if s != p {
				t.Errorf("%s: %s output differs between -j1 and -j4:\n--- serial ---\n%s\n--- parallel ---\n%s",
					b.name, format, s, p)
			}
		}
	}
}

// TestBaselineMemoizedAcrossCalls counts simsched.Run invocations to
// pin the memo's contract: Speedup and OfflineBest on the same
// (program, config) share one baseline, OfflineBest's MTL=n probe is
// the baseline itself, and every static MTL is measured once however
// often it is asked for.
func TestBaselineMemoizedAcrossCalls(t *testing.T) {
	e := freshEnv(t, 2)
	prog := e.Lib().DFT()
	cfg := e.Cfg()
	n := cfg.Machine.HardwareThreads()
	model := Model(cfg)
	reps := uint64(e.Reps)

	before := simsched.RunCount()
	s1, _ := e.Speedup(prog, cfg, func() core.Throttler { return core.NewDynamic(model, 8) })
	afterSpeedup := simsched.RunCount() - before
	if want := 2 * reps; afterSpeedup != want {
		t.Errorf("first Speedup ran %d simulations, want %d (baseline + policy)", afterSpeedup, want)
	}

	// Second policy on the same (prog, cfg): baseline must be a memo
	// hit, costing only the policy's reps.
	s2, _ := e.Speedup(prog, cfg, func() core.Throttler { return core.NewOnlineExhaustive(model, 8, 0.10) })
	afterSecond := simsched.RunCount() - before
	if want := 3 * reps; afterSecond != want {
		t.Errorf("second Speedup brought total to %d simulations, want %d (memoised baseline)", afterSecond, want)
	}

	// OfflineBest: n-1 probe MTLs run, MTL=n reuses the baseline.
	k, off := e.OfflineBest(prog, cfg)
	afterOffline := simsched.RunCount() - before
	if want := uint64(2+n) * reps; afterOffline != want {
		t.Errorf("OfflineBest brought total to %d simulations, want %d (no baseline rerun, no MTL=n probe)",
			afterOffline, want)
	}
	if k < 1 || k > n || s1 <= 0 || s2 <= 0 || off <= 0 {
		t.Errorf("implausible results: k=%d s1=%g s2=%g off=%g", k, s1, s2, off)
	}

	hits, misses := e.MemoStats()
	if want := uint64(n); misses != want {
		t.Errorf("memo misses = %d, want %d (one per static MTL)", misses, want)
	}
	if hits != 3 {
		t.Errorf("memo hits = %d, want 3 (second Speedup, OfflineBest's baseline and its MTL=n probe)", hits)
	}

	// A repeated search, or any static point of it asked for directly,
	// is served entirely from the memo.
	k2, off2 := e.OfflineBest(prog, cfg)
	t1, _ := e.Static(prog, cfg, 1)
	if again := simsched.RunCount() - before; again != afterOffline {
		t.Errorf("repeated OfflineBest + Static ran %d more simulations, want 0", again-afterOffline)
	}
	if k2 != k || off2 != off || t1 <= 0 {
		t.Errorf("repeated OfflineBest = (%d, %g), first (%d, %g); Static(1) = %g", k2, off2, k, off, t1)
	}

	// A different config (2-DIMM) must be a fresh baseline.
	e.Baseline(prog, e.Cfg2(false))
	if _, misses = e.MemoStats(); misses != uint64(n)+1 {
		t.Errorf("distinct config memo misses = %d, want %d", misses, n+1)
	}
}

// TestBaselineMemoDistinguishesPrograms guards the structural program
// fingerprint: programs that share a name prefix or differ only in
// compute time must not collide.
func TestBaselineMemoDistinguishesPrograms(t *testing.T) {
	e := freshEnv(t, 2)
	lib := e.Lib()
	cfg := e.Cfg()

	a, _ := e.Baseline(lib.Synthetic(0.30, 512<<10, 32), cfg)
	b, _ := e.Baseline(lib.Synthetic(0.60, 512<<10, 32), cfg)
	if a == b {
		t.Error("baselines for different synthetic ratios collided")
	}
	// Same formatted name (%.2f) but distinct compute times: ratios
	// that round to the same label must still be distinct keys.
	c1, _ := e.Baseline(lib.Synthetic(0.3001, 512<<10, 32), cfg)
	c2, _ := e.Baseline(lib.Synthetic(0.3049, 512<<10, 32), cfg)
	if c1 == c2 {
		t.Error("baselines for nearly-equal ratios with identical names collided")
	}
	_, misses := e.MemoStats()
	if misses != 4 {
		t.Errorf("expected 4 distinct baseline keys, got %d misses", misses)
	}
}

// TestRunTrimmedParallelMatchesSerial pins the rep-level fan-out: the
// trimmed mean and representative result must not depend on workers.
func TestRunTrimmedParallelMatchesSerial(t *testing.T) {
	e := freshEnv(t, 1)
	prog := e.Lib().Streamcluster(36)
	cfg := e.Cfg()
	mk := func() core.Throttler { return core.Fixed{K: 2} }

	tSerial, repSerial := e.runTrimmed(prog, cfg, mk)
	e4 := e.WithWorkers(4)
	tPar, repPar := e4.runTrimmed(prog, cfg, mk)
	if tSerial != tPar {
		t.Errorf("trimmed mean differs: serial %v vs parallel %v", tSerial, tPar)
	}
	if repSerial.TotalTime != repPar.TotalTime || repSerial.PairsCompleted != repPar.PairsCompleted {
		t.Errorf("representative result differs: %+v vs %+v", repSerial, repPar)
	}
}
