// Benchmark harness: one testing.B benchmark per paper artifact
// (tables II/III, figures 13-18, the §VI overhead and model-error
// claims, the calibration that grounds the platform, and the two
// design ablations), plus micro-benchmarks of the substrates.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Headline quantities are attached to each benchmark via
// b.ReportMetric (speedup_x, error_pct, ...), so the bench output
// doubles as a results summary. cmd/mtlbench prints the full tables.
package memthrottle

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/experiments"
	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/sim"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stream"
	"memthrottle/internal/workload"
)

var (
	benchEnvOnce sync.Once
	benchEnv     experiments.Env
	benchEnvErr  error
)

func benchEnvironment(b *testing.B) experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() { benchEnv, benchEnvErr = experiments.DefaultEnv(true) })
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// runSpec executes one catalog experiment per iteration.
func runSpec(b *testing.B, id string) experiments.Table {
	env := benchEnvironment(b)
	spec, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var tab experiments.Table
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab, err = spec.Run(env); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return tab
}

// BenchmarkCalibrate is the end-to-end calibration run: 4 concurrent
// stream levels measured on fresh engines and fitted to the contention
// law. It is the headline wall-clock number for the simulator hot path
// (compared with its base by `make bench-check`).
func BenchmarkCalibrate(b *testing.B) {
	var cal mem.Calibration
	var err error
	for i := 0; i < b.N; i++ {
		cal, err = mem.Calibrate(mem.DDR3_1066(), 4, 6, workload.Footprint)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cal.Tm[3])/float64(cal.Tm[0]), "Tm4/Tm1_x")
	b.ReportMetric(cal.R2, "fit_R2")
}

// BenchmarkCalibrateAdjacentCold pins the cost of extending a
// calibration by one MTL point through the one-shot API: a platform
// measured for k = 1..4 needs Tm at k = 5, and Calibrate can only
// deliver it by re-measuring every level from scratch. This is the
// permanent cold-path contrast for BenchmarkCalibrateWarm.
func BenchmarkCalibrateAdjacentCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := mem.Calibrate(mem.DDR3_1066(), 5, 6, workload.Footprint); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrateWarm measures one adjacent-MTL re-measure: the
// sweep-context step of extending an existing k = 1..4 calibration to
// k = 5 and refitting. Before the warm-start Calibrator this cost a
// full re-calibration of every level (BenchmarkCalibrateAdjacentCold
// keeps that contrast measurable); now it costs a single k = 5
// measurement on reused engine state plus an O(maxK) refit. The
// memoised k = 5 point is forgotten between iterations so each one
// simulates.
func BenchmarkCalibrateWarm(b *testing.B) {
	c, err := mem.NewCalibrator(mem.DDR3_1066(), 6, workload.Footprint)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Calibrate(4); err != nil { // the existing sweep
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Measure(5); err != nil { // Measure never memo-hits
			b.Fatal(err)
		}
		if _, err := c.Calibrate(5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13Sweep tracks the wall-clock of the quick Fig. 13 grid
// on a fresh environment (fresh static-MTL memo, process calibration
// cache warm): one figure's worth of simsched runs and nothing else.
func BenchmarkFig13Sweep(b *testing.B) {
	benchEnvironment(b) // warm the process-wide calibration cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := experiments.DefaultEnv(true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig13Sweep(e, 512<<10, 0.3, 1.5, 0.4, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrateCachedHit measures the process-wide calibration
// cache on the hit path — the cost every DefaultEnv after the first
// pays instead of BenchmarkCalibrateDRAM's full simulation.
func BenchmarkCalibrateCachedHit(b *testing.B) {
	cfg := mem.DDR3_1066()
	if _, err := mem.CalibrateCached(cfg, 4, 6, workload.Footprint); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mem.CalibrateCached(cfg, 4, 6, workload.Footprint); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Ratios(b *testing.B) {
	tab := runSpec(b, "T2")
	if len(tab.Rows) != 7 {
		b.Fatal("table II incomplete")
	}
}

func BenchmarkTable3SIFTRatios(b *testing.B) {
	tab := runSpec(b, "T3")
	if len(tab.Rows) != 14 {
		b.Fatal("table III incomplete")
	}
}

// fig13 runs one footprint's sweep and reports the peak speedup and
// the mean model error.
func fig13(b *testing.B, footprint float64) {
	env := benchEnvironment(b)
	var pts []experiments.Fig13Point
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts, err = experiments.Fig13Sweep(env, footprint, 0.1, 4.0, 0.1, 64); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	peak, errSum := 0.0, 0.0
	for _, p := range pts {
		if p.Measured > peak {
			peak = p.Measured
		}
		errSum += p.MeasuredError
	}
	b.ReportMetric(peak, "peak_speedup_x")
	b.ReportMetric(100*errSum/float64(len(pts)), "model_err_pct")
}

func BenchmarkFig13aSweep(b *testing.B) { fig13(b, 512<<10) }
func BenchmarkFig13bSweep(b *testing.B) { fig13(b, 1<<20) }
func BenchmarkFig13cSweep(b *testing.B) { fig13(b, 2<<20) }

func BenchmarkFig14Realistic(b *testing.B) {
	tab := runSpec(b, "F14")
	// Last row is the geometric mean; column 3 is the dynamic speedup.
	gmeanRow := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(mustF(b, gmeanRow[3]), "dyn_gmean_speedup_x")
	b.ReportMetric(float64(parallel.Workers(0)), "workers")
}

// BenchmarkFig14Serial is the single-worker baseline for the parallel
// run engine: the ns/op gap to BenchmarkFig14Realistic is the fan-out
// win on this host (identical tables either way — see
// TestParallelTablesByteIdentical).
func BenchmarkFig14Serial(b *testing.B) {
	env := benchEnvironment(b).WithWorkers(1)
	var tab experiments.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab = experiments.Fig14(env)
	}
	b.StopTimer()
	gmeanRow := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(mustF(b, gmeanRow[3]), "dyn_gmean_speedup_x")
}

func BenchmarkFig15WSensitivity(b *testing.B) {
	tab := runSpec(b, "F15")
	if len(tab.Rows) != 3 {
		b.Fatal("F15 incomplete")
	}
}

func BenchmarkFig16SIFTPhases(b *testing.B) {
	tab := runSpec(b, "F16")
	if len(tab.Rows) != 14 {
		b.Fatal("F16 incomplete")
	}
}

func BenchmarkFig17SCInputs(b *testing.B) {
	tab := runSpec(b, "F17")
	if len(tab.Rows) != 6 {
		b.Fatal("F17 incomplete")
	}
}

func BenchmarkFig18Scaling(b *testing.B) {
	tab := runSpec(b, "F18")
	if len(tab.Rows) != 6 {
		b.Fatal("F18 incomplete")
	}
}

func BenchmarkOverheadAccounting(b *testing.B) {
	tab := runSpec(b, "X1")
	// Rows: 4-thread dynamic/online, then 8-thread; probe windows are
	// the structural overhead contrast (column 4).
	b.ReportMetric(mustF(b, tab.Rows[2][4]), "dyn_probes_8t")
	b.ReportMetric(mustF(b, tab.Rows[3][4]), "online_probes_8t")
}

func BenchmarkModelError(b *testing.B) {
	tab := runSpec(b, "X2")
	b.ReportMetric(mustPct(b, tab.Rows[0][1]), "mean_err_pct")
	b.ReportMetric(mustPct(b, tab.Rows[0][3]), "max_err_pct")
}

func BenchmarkAblationPhaseDetect(b *testing.B) {
	tab := runSpec(b, "A1")
	b.ReportMetric(mustF(b, tab.Rows[0][2]), "paper_selections")
	b.ReportMetric(mustF(b, tab.Rows[1][2]), "naive_selections")
}

func BenchmarkAblationSearch(b *testing.B) {
	tab := runSpec(b, "A2")
	b.ReportMetric(mustF(b, tab.Rows[2][3]), "binary_probes_n8")
	b.ReportMetric(mustF(b, tab.Rows[3][3]), "linear_probes_n8")
}

func BenchmarkAblationController(b *testing.B) {
	tab := runSpec(b, "A3")
	b.ReportMetric(mustF(b, tab.Rows[0][3]), "fcfs_Tm4_Tm1_x")
	b.ReportMetric(mustF(b, tab.Rows[1][3]), "frfcfs_Tm4_Tm1_x")
}

func BenchmarkNoiseSensitivity(b *testing.B) {
	tab := runSpec(b, "N1")
	b.ReportMetric(mustF(b, tab.Rows[0][4]), "quiet_Tm4_Tm1_x")
	b.ReportMetric(mustF(b, tab.Rows[len(tab.Rows)-1][4]), "noisy_Tm4_Tm1_x")
}

func BenchmarkPower7Scaling(b *testing.B) {
	tab := runSpec(b, "P1")
	if len(tab.Rows) != 3 {
		b.Fatal("P1 incomplete")
	}
	b.ReportMetric(mustF(b, tab.Rows[1][1]), "sc_speedup_32t_x")
}

// --- substrate micro-benchmarks ---

func BenchmarkDRAMAccess(b *testing.B) {
	eng := sim.New()
	sys := mem.NewSystem(eng, mem.DDR3_1066())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AccessFn(uint64(i*64), nil, nil)
		if i%1024 == 0 {
			eng.RunUntil(eng.Now() + sim.Millisecond)
		}
	}
	eng.Run()
}

// BenchmarkPoolStart drives the fluid contention pool through its
// closure entry point, as the repository benchmark's contend.Pool probe
// does: four transfers in flight, each restarted from its
// predecessor's completion callback.
func BenchmarkPoolStart(b *testing.B) {
	eng := sim.New()
	pool := contend.NewPool(eng, contend.Params{TmlPerByte: 1e-9, TqlPerByte: 0.4e-9})
	left := b.N
	var next func()
	next = func() {
		if left > 0 {
			left--
			pool.Start(workload.Footprint, 1, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 4; i++ {
		next()
	}
	eng.Run()
}

// BenchmarkStreamPump drives one closed-loop stream (MaxOutstanding
// lines in flight, jittered think time) through the request-level DRAM
// model — the inner loop of every calibration measurement.
func BenchmarkStreamPump(b *testing.B) {
	eng := sim.New()
	sys := mem.NewSystem(eng, mem.DDR3_1066())
	b.ReportAllocs()
	b.ResetTimer()
	sys.StartStream(0, b.N, nil)
	eng.Run()
}

// benchSchedulerPairs times one closed-loop simsched.Run under the
// dynamic controller: the per-run cost the experiment sweeps multiply
// by tens of thousands.
func benchSchedulerPairs(b *testing.B, prog *stream.Program, cfg simsched.Config) {
	pairs := prog.TotalPairs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := simsched.Run(prog, cfg, core.NewDynamic(core.NewModel(4), 8))
		if res.PairsCompleted != pairs {
			b.Fatal("pairs lost")
		}
	}
}

func BenchmarkSchedulerPairs(b *testing.B) {
	env := benchEnvironment(b)
	benchSchedulerPairs(b, env.Lib().Synthetic(0.5, workload.Footprint, 64), env.Cfg())
}

// BenchmarkSchedulerPairs1024 is the same kernel on a phase sixteen
// times as long: per pair it must cost what 64 pairs cost (admission
// is O(domains), not O(ready tasks)) and allocate no more per run.
func BenchmarkSchedulerPairs1024(b *testing.B) {
	env := benchEnvironment(b)
	benchSchedulerPairs(b, env.Lib().Synthetic(0.5, workload.Footprint, 1024), env.Cfg())
}

// BenchmarkSchedulerPairsDomains4Scatter exercises the rest of the
// admission path: four memory domains, each with its own gather cursor
// and ready-scatter queue, and a write-back per pair.
func BenchmarkSchedulerPairsDomains4Scatter(b *testing.B) {
	env := benchEnvironment(b)
	lib := env.Lib()
	compute := lib.Synthetic(0.5, workload.Footprint, 1).Phases[0].Pairs[0].Compute.Work
	prog := stream.Build("synthetic+scatter", stream.PhaseSpec{
		Name: "kernel", Pairs: 256, MemBytes: workload.Footprint,
		ComputeTime: compute, ScatterBytes: workload.Footprint / 2,
	})
	cfg := env.Cfg()
	cfg.Machine.MemDomains = 4
	for d := 0; d < 4; d++ {
		cfg.DomainMem[d] = env.Mem1
	}
	benchSchedulerPairs(b, prog, cfg)
}

func BenchmarkAnalyticalModel(b *testing.B) {
	m := core.NewModel(4)
	var s float64
	for i := 0; i < b.N; i++ {
		s = m.Speedup(2*sim.Microsecond, sim.Microsecond, 3*sim.Microsecond, 1)
	}
	_ = s
}

func BenchmarkSelectorConvergence(b *testing.B) {
	m := core.NewModel(8)
	for i := 0; i < b.N; i++ {
		sel := core.NewSelector(m)
		for {
			k, done := sel.NextProbe()
			if done {
				break
			}
			sel.Record(k, core.Measurement{
				Tm: sim.Microsecond + sim.Time(k)*400*sim.Nanosecond,
				Tc: 2 * sim.Microsecond,
			})
		}
	}
}

func mustF(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func mustPct(b *testing.B, s string) float64 {
	b.Helper()
	return mustF(b, strings.TrimSuffix(s, "%"))
}
