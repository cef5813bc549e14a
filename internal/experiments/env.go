// Package experiments regenerates every table and figure of the
// paper's evaluation (§V-§VI) on the simulated platform. Each
// experiment returns a Table whose rows mirror the series the paper
// reports; EXPERIMENTS.md records paper-vs-measured for each.
//
// Methodology mirrors §V: each configuration runs Reps times with
// seeded noise and the middle Keep results are averaged (the paper
// runs 20 and keeps the middle 10); speedups are against the
// conventional interference-oblivious schedule (MTL = n) on the same
// configuration.
package experiments

import (
	"fmt"
	"strings"

	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stats"
	"memthrottle/internal/stream"
	"memthrottle/internal/workload"
)

// Env carries the calibrated platform shared by all experiments.
type Env struct {
	// DRAM configurations and their request-level calibrations.
	DRAM1 mem.Config // 1-DIMM, single channel (§V base platform)
	DRAM2 mem.Config // 2-DIMM, two channels (Fig. 18)
	Cal1  mem.Calibration
	Cal2  mem.Calibration

	// Fluid parameters derived from the calibrations.
	Mem1 contend.Params
	Mem2 contend.Params

	Reps       int     // runs per configuration (paper: 20)
	Keep       int     // middle results kept (paper: 10)
	NoiseSigma float64 // simulated system noise
	W          int     // default monitor window (paper: 16)

	// Workers bounds the fan-out of independent simulation runs
	// (0 = the process default, normally GOMAXPROCS). Every run owns
	// its virtual clock, so the worker count never changes a result —
	// only how fast the grid of (workload, config, policy, seed)
	// points drains.
	Workers int

	// memo caches static-MTL measurements per (program, config, K);
	// shared by all copies of this Env.
	memo *staticMemo
}

// Options has no fields left; NewEnv keeps the parameter so existing
// callers that pass Options{} still compile.
type Options struct{}

// WithWorkers returns a copy of the environment with the given
// parallel worker budget (0 = process default). The static-MTL memo is
// shared with the receiver, which is safe: memoised values are
// deterministic and independent of the worker count.
func (e Env) WithWorkers(n int) Env {
	if n < 0 {
		n = 0
	}
	e.Workers = n
	return e
}

// jobs resolves the environment's worker budget.
func (e Env) jobs() int { return parallel.Workers(e.Workers) }

// DefaultEnv calibrates the DRAM models and returns the paper's
// methodology parameters. Pass quick=true to cut repetitions for
// benchmarks and smoke tests (3 reps, keep 3).
func DefaultEnv(quick bool) (Env, error) {
	return NewEnv(quick, Options{})
}

// NewEnv is DefaultEnv; Options is empty.
func NewEnv(quick bool, _ Options) (Env, error) {
	// NoiseSigma: the paper measures on a noise-controlled machine
	// (services disabled, 20-run trimming); per-task jitter there is
	// well under 1%. Larger values dissolve the equal-task convoys
	// whose contention the mechanism exploits.
	e := Env{
		DRAM1:      mem.DDR3_1066(),
		DRAM2:      mem.DDR3_1066().WithChannels(2),
		Reps:       20,
		Keep:       10,
		NoiseSigma: 0.003,
		W:          16,
	}
	if quick {
		e.Reps, e.Keep = 3, 3
	}
	e.memo = newStaticMemo()
	// Calibration is deterministic per DRAM config, so it is cached
	// process-wide: every test, benchmark and CLI entry point pays
	// for each configuration at most once.
	const maxK = 8 // calibrate up to the SMT thread count
	var err error
	e.Cal1, err = mem.CalibrateCached(e.DRAM1, maxK, 6, workload.Footprint)
	if err != nil {
		return Env{}, fmt.Errorf("experiments: 1-DIMM calibration: %w", err)
	}
	e.Cal2, err = mem.CalibrateCached(e.DRAM2, maxK, 6, workload.Footprint)
	if err != nil {
		return Env{}, fmt.Errorf("experiments: 2-DIMM calibration: %w", err)
	}
	e.Mem1 = contend.FromCalibration(e.Cal1)
	e.Mem2 = contend.FromCalibration(e.Cal2)
	return e, nil
}

// Lib returns the workload library for the base platform.
func (e Env) Lib() workload.Library { return workload.NewLibrary(e.Mem1) }

// Cfg returns the base simulation config (i7-860, 1 DIMM) with the
// environment's noise level.
func (e Env) Cfg() simsched.Config {
	c := simsched.Default(e.Mem1)
	c.NoiseSigma = e.NoiseSigma
	return c
}

// Cfg2 returns the 2-DIMM config, optionally with SMT enabled.
func (e Env) Cfg2(smt bool) simsched.Config {
	c := simsched.Default(e.Mem2)
	c.NoiseSigma = e.NoiseSigma
	if smt {
		c.Machine = machine.I7860().WithSMT(2)
	}
	return c
}

// runTrimmed executes reps seeded runs as one parallel batch and
// returns the trimmed-mean total time plus a representative
// (first-seed) result. Each repetition owns its engine and RNG, so
// the fan-out is measurement-neutral: results are assembled in seed
// order and the trimmed mean is identical to a serial loop.
func (e Env) runTrimmed(prog *stream.Program, cfg simsched.Config, mk func() core.Throttler) (float64, simsched.Result) {
	results := parallel.Map(e.jobs(), e.Reps, func(r int) simsched.Result {
		c := cfg
		c.Seed = int64(r + 1)
		return simsched.Run(prog, c, mk())
	})
	times := make([]float64, 0, e.Reps)
	for _, res := range results {
		times = append(times, float64(res.TotalTime))
	}
	return stats.TrimmedMean(times, e.Keep), results[0]
}

// Speedup measures the policy's trimmed-mean speedup over the
// conventional MTL=n schedule on the same config. The baseline comes
// from the shared memo, so repeated comparisons against one
// (program, config) pay for the baseline runs once.
func (e Env) Speedup(prog *stream.Program, cfg simsched.Config, mk func() core.Throttler) (float64, simsched.Result) {
	base, _ := e.Baseline(prog, cfg)
	t, rep := e.runTrimmed(prog, cfg, mk)
	return stats.Speedup(base, t), rep
}

// OfflineBest exhaustively searches fixed MTLs (the Offline Exhaustive
// Search baseline) and returns the winning MTL and its speedup. The
// per-MTL probes run as one parallel batch through the static-MTL
// memo, so MTL = n is the conventional baseline itself and a repeated
// search costs nothing. Ties keep the lowest MTL, exactly as the
// serial sweep did.
func (e Env) OfflineBest(prog *stream.Program, cfg simsched.Config) (bestK int, bestSpeedup float64) {
	n := cfg.Machine.HardwareThreads()
	base, _ := e.Baseline(prog, cfg)
	times := parallel.Map(e.jobs(), n, func(i int) float64 {
		t, _ := e.Static(prog, cfg, i+1)
		return t
	})
	for k := 1; k <= n; k++ {
		if s := stats.Speedup(base, times[k-1]); bestK == 0 || s > bestSpeedup {
			bestK, bestSpeedup = k, s
		}
	}
	return bestK, bestSpeedup
}

// Model returns the analytical model for a config's thread count.
func Model(cfg simsched.Config) core.Model {
	return core.NewModel(cfg.Machine.HardwareThreads())
}

// Table is one regenerated paper artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// Elapsed is the wall-clock cost of regenerating the table, in
	// seconds. Experiments leave it zero — table content must stay
	// deterministic — and the CLI stamps it after the run, so every
	// render format can report it without perturbing the data rows.
	Elapsed float64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if t.Elapsed > 0 {
		fmt.Fprintf(&b, "(%s finished in %.3fs)\n", t.ID, t.Elapsed)
	}
	return b.String()
}

// f2, f3, pct format helpers keep rows consistent.
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
