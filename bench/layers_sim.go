package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/experiments"
	"memthrottle/internal/machine"
	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/sim"
	"memthrottle/internal/simsched"
	"memthrottle/internal/workload"
)

// budget collects the per-layer metrics of one traced run (one sample
// each) with the outcome of the checks the traced passes make, and one
// tracer per workload whose spans are written out when the run ends.
type budget struct {
	rc     *runConfig
	res    *result
	traces map[string]*tracer
}

func newBudget(rc *runConfig) *budget {
	b := &budget{rc: rc, res: newResult(), traces: make(map[string]*tracer)}
	for _, w := range workloads {
		b.traces[w.name] = newTracer()
	}
	return b
}

func (b *budget) set(name string, v float64) { b.res.add(name, v) }

// perOp times fn, which does n operations, in a span and returns
// nanoseconds per operation.
func perOp(tr *tracer, parent int64, name string, n int, fn func()) float64 {
	d := tr.timed(name, parent, func(int64) { fn() })
	return float64(d.Nanoseconds()) / float64(n)
}

func runtimeP() int { return runtime.NumCPU() }

// --- sim: event queue ---

func (b *budget) probeSim(tr *tracer, parent int64) {
	const steps = 2_000_000
	// One pending event, rescheduled as it fires: the queue's floor.
	e := sim.NewWheel()
	var again func(any)
	again = func(any) { e.AfterFunc(sim.Nanosecond, again, nil) }
	e.AfterFunc(sim.Nanosecond, again, nil)
	b.set("sim.engine.ns_per_event", perOp(tr, parent, "sim.engine.step", steps, func() {
		for i := 0; i < steps; i++ {
			e.Step()
		}
	}))
	// 256 pending events one tick apart: the depth calibration and the
	// experiments keep in flight.
	const depth = 256
	d := sim.NewWheel()
	var deep func(any)
	deep = func(any) { d.AfterFunc(depth*sim.DefaultWheelTick, deep, nil) }
	for i := 0; i < depth; i++ {
		d.AfterFunc(sim.Time(i)*sim.DefaultWheelTick, deep, nil)
	}
	b.set("sim.engine.ns_per_event_deep256", perOp(tr, parent, "sim.engine.step_deep256", steps, func() {
		for i := 0; i < steps; i++ {
			d.Step()
		}
	}))
}

// --- mem: DRAM model, stream pump, calibration ---

func (b *budget) probeMem(tr *tracer, parent int64) mem.Calibration {
	cfg := mem.DDR3_1066()
	const accesses = 200_000
	issue := func(name string, addr func(i int) uint64) *mem.System {
		eng := sim.NewWheel()
		sys := mem.NewSystem(eng, cfg)
		b.set(name, perOp(tr, parent, name, accesses, func() {
			for i := 0; i < accesses; i++ {
				sys.AccessFn(addr(i), nil, nil)
				if i%1024 == 1023 {
					eng.Run()
				}
			}
			eng.Run()
		}))
		return sys
	}
	seq := issue("mem.dram.ns_per_access_seq", func(i int) uint64 { return uint64(i) * 64 })
	b.set("mem.dram.row_hit_rate", seq.RowHitRate())
	b.set("mem.dram.bus_util", seq.BusUtilization())
	x := uint64(b.rc.seed)*2654435761 + 1
	issue("mem.dram.ns_per_access_rand", func(int) uint64 {
		x = x*6364136223846793005 + 1442695040888963407 // seeded LCG over 1 GiB
		return (x >> 34) << 6
	})

	eng := sim.NewWheel()
	sys := mem.NewSystem(eng, cfg)
	b.set("mem.stream.ns_per_line", perOp(tr, parent, "mem.stream.pump", accesses, func() {
		sys.StartStream(0, accesses, nil)
		eng.Run()
	}))

	// Every level alone, one after the other, then the same levels
	// through Calibrate, which fans them out: the ratio is what the
	// fan-out buys on this machine.
	var serial time.Duration
	for k := 1; k <= dramMaxK; k++ {
		d := tr.timed(fmt.Sprintf("mem.MeasureTaskTime.k%d", k), parent, func(int64) {
			_, err := mem.MeasureTaskTime(cfg, k, dramTasksPerStream, workload.Footprint)
			b.res.check(err == nil, 1, "mem.MeasureTaskTime k=%d: %v", k, err)
		})
		serial += d
		if k == 1 || k == 4 || k == 8 {
			b.set(fmt.Sprintf("mem.calibrate.k%d_ms", k), d.Seconds()*1e3)
		}
	}
	var cal mem.Calibration
	fanned := tr.timed("mem.Calibrate", parent, func(int64) {
		var err error
		cal, err = calibrate(dramConfigs()[0])
		b.res.check(err == nil, 1, "mem.Calibrate: %v", err)
	})
	b.set("mem.calibrate.par_speedup_x", serial.Seconds()/fanned.Seconds())
	tml, tql := cal.PerByte()
	b.set("mem.calibrate.tml_ps_per_byte", tml*1e12)
	b.set("mem.calibrate.tql_ps_per_byte", tql*1e12)

	// The warm calibrator re-measures one level on reused engine state.
	c, err := mem.NewCalibrator(cfg, dramTasksPerStream, workload.Footprint)
	if err == nil {
		_, err = c.Calibrate(4)
	}
	b.res.check(err == nil, 1, "mem.Calibrator: %v", err)
	if err == nil {
		d := tr.timed("mem.Calibrator.Measure.k5", parent, func(int64) {
			_, err := c.Measure(5)
			b.res.check(err == nil, 1, "mem.Calibrator.Measure: %v", err)
		})
		b.set("mem.calibrator.warm_k5_ms", d.Seconds()*1e3)
	}
	return cal
}

// --- contend, machine, core ---

func (b *budget) probeFluid(tr *tracer, parent int64, params contend.Params) {
	const tasks = 200_000
	// Four transfers in flight, each restarted as it completes.
	eng := sim.NewWheel()
	pool := contend.NewPool(eng, params)
	left := tasks
	var next func()
	next = func() {
		if left > 0 {
			left--
			pool.Start(workload.Footprint, 1, next)
		}
	}
	b.set("contend.pool.ns_per_task", perOp(tr, parent, "contend.Pool", tasks, func() {
		for i := 0; i < 4; i++ {
			next()
		}
		eng.Run()
	}))
	b.res.check(pool.Completed() == tasks, 1, "contend.Pool completed %d of %d transfers", pool.Completed(), tasks)

	eng = sim.NewWheel()
	cpu := machine.New(eng, machine.I7860()).Core(0)
	left = tasks
	var compute func()
	compute = func() {
		if left > 0 {
			left--
			cpu.StartCompute(10*sim.Microsecond, compute)
		}
	}
	b.set("machine.core.ns_per_compute", perOp(tr, parent, "machine.Core", tasks, func() {
		compute()
		eng.Run()
	}))
	b.res.check(left == 0, 1, "machine.Core left %d computes unstarted", left)

	const pairs = 1_000_000
	// A two-class stream through the blacklist policy, as
	// BenchmarkPolicyObserve feeds it.
	th := core.NewPolicyThrottler(core.NewBlacklist(core.Fixed{K: 8}, core.BlacklistOptions{}), 16, 8)
	var now core.Time
	b.set("core.policy.ns_per_pair", perOp(tr, parent, "core.PolicyThrottler.OnPair", pairs, func() {
		for i := 0; i < pairs; i++ {
			now += 8 * sim.Microsecond
			th.OnSignal(i&1, core.SignalIssue)
			th.OnPair(core.PairSample{Tm: 2 * sim.Microsecond, Tc: 6 * sim.Microsecond, Now: now, Class: i & 1})
		}
	}))
	// The paper's controller on a stream whose memory time follows the
	// contention law at whatever MTL the controller has set, with a
	// phase change every 4096 pairs so it keeps re-selecting.
	dyn := core.NewDynamic(core.NewModel(4), 16)
	now = 0
	b.set("core.dynamic.ns_per_pair", perOp(tr, parent, "core.Dynamic.OnPair", pairs, func() {
		for i := 0; i < pairs; i++ {
			now += 8 * sim.Microsecond
			tc := 6 * sim.Microsecond
			if i&4096 != 0 {
				tc = sim.Microsecond
			}
			tm := sim.Microsecond + sim.Time(dyn.MTL())*400*sim.Nanosecond
			dyn.OnPair(core.PairSample{Tm: tm, Tc: tc, Now: now})
		}
	}))
	b.set("core.dynamic.probes", float64(dyn.TotalProbes))
}

// --- simsched: closed-loop Run and the two open-loop drivers ---

func (b *budget) probeSimsched(tr *tracer, parent int64, params contend.Params) {
	const (
		pairs = 256
		reps  = 200
		jobs  = 40000
	)
	prog := workload.NewLibrary(params).Synthetic(0.35, workload.Footprint, pairs)
	base := simsched.Default(params)
	base.NoiseSigma = 0.003
	domains4 := base
	domains4.Machine.MemDomains = 4
	for d := 0; d < 4; d++ {
		domains4.DomainMem[d] = params
	}
	simpar4 := domains4
	simpar4.SimPar = true
	model := core.NewModel(base.Machine.HardwareThreads())

	run := func(name string, cfg simsched.Config, mk func() core.Throttler) simsched.Result {
		var last simsched.Result
		ns := perOp(tr, parent, "simsched.Run."+name, reps*pairs, func() {
			for r := 0; r < reps; r++ {
				cfg.Seed = int64(r + 1)
				last = simsched.Run(prog, cfg, mk())
				b.res.check(last.PairsCompleted == pairs, 1, "simsched.Run %s completed %d of %d pairs", name, last.PairsCompleted, pairs)
			}
		})
		b.set("simsched.run.us_per_pair."+name, ns/1e3)
		return last
	}
	fixed := func() core.Throttler { return core.Fixed{K: 2} }
	run("fixed", base, fixed)
	run("dynamic", base, func() core.Throttler { return core.NewDynamic(model, 16) })
	run("online", base, func() core.Throttler { return core.NewOnlineExhaustive(model, 16, 0.10) })
	run("domains4", domains4, fixed)
	run("simpar4", simpar4, fixed)

	pair := prog.Phases[0].Pairs[0]
	gather, compute := pair.Gather.Bytes, float64(pair.Compute.Work)
	rate := 0.7 * float64(base.Machine.HardwareThreads()) / (float64(params.TaskTime(gather, 2)) + compute)
	b.set("simsched.serve.us_per_job", perOp(tr, parent, "simsched.ServeRun", jobs, func() {
		res := simsched.ServeRun(base, simsched.ServeSpec{
			Arrivals: workload.NewPoisson(rate, b.rc.seed), Jobs: jobs,
			Gather: gather, Compute: sim.Time(compute), Queue: 64,
		}, core.Fixed{K: 2})
		b.res.check(res.Completed+res.Dropped == res.Arrived && res.Arrived == jobs, 1,
			"simsched.ServeRun: %d arrived, %d completed, %d dropped of %d", res.Arrived, res.Completed, res.Dropped, jobs)
	})/1e3)
	b.set("simsched.mix.us_per_job", perOp(tr, parent, "simsched.MixRun", jobs, func() {
		stream := func(class int) simsched.Stream {
			return simsched.Stream{Class: class, Arrivals: workload.NewPoisson(rate/2, b.rc.seed+int64(class)),
				Shapes: workload.NewSteady(gather, compute), Jobs: jobs / 2}
		}
		res := simsched.MixRun(base, simsched.MixSpec{Streams: []simsched.Stream{stream(0), stream(1)}, Queue: 64}, core.Fixed{K: 2})
		done := 0
		for _, c := range res.ByClass {
			done += c.Completed + c.Dropped
		}
		b.res.check(done == jobs, 1, "simsched.MixRun: %d of %d jobs completed or dropped", done, jobs)
	})/1e3)
}

// --- experiments, parallel: one cold pass over the catalog ---

// jSpeedupSpec is the experiment parallel.j_speedup_x is measured on:
// the largest one that is all simulation runs fanned out over the
// worker budget (D1 is larger, but most of it is calibrating its
// replica domains, which the process caches after the first pass).
const jSpeedupSpec = "F18"

// cell parses one table cell, with or without a trailing %.
func cell(t experiments.Table, row, col int) (float64, error) {
	if row < 0 {
		row += len(t.Rows)
	}
	if row < 0 || row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return 0, fmt.Errorf("%s has no cell [%d][%d]", t.ID, row, col)
	}
	return strconv.ParseFloat(strings.TrimSuffix(t.Rows[row][col], "%"), 64)
}

func (b *budget) passExperiments(tr *tracer, expected sweepExpected) {
	p := runtimeP()
	parallel.SetDefault(p)
	defer parallel.SetDefault(0)
	simRuns, calRuns := simsched.RunCount(), mem.CalibrateRuns()
	var runSum time.Duration
	tables := make(map[string]experiments.Table)
	var root int64
	pass := tr.timed("experiments.pass", 0, func(id int64) {
		root = id
		var env experiments.Env
		cal := tr.timed("experiments.NewEnv", id, func(int64) {
			var err error
			env, err = experiments.NewEnv(false, experiments.Options{})
			b.res.check(err == nil, 1, "experiments.NewEnv: %v", err)
		})
		b.set("experiments.calibration_s", cal.Seconds())
		env = env.WithWorkers(p)
		for _, s := range experiments.Catalog() {
			d := tr.timed("experiments.Run."+s.ID, id, func(int64) {
				tab, err := s.Run(env)
				tables[s.ID] = tab
				want, pinned := expected.Digests[s.ID]
				got := table{ID: tab.ID, Columns: tab.Columns, Rows: tab.Rows}.digest()
				b.res.check(err == nil && (!pinned || got == want), 1, "experiments %s: err %v, or output digest differs from bench/expected/sim_sweep.json", s.ID, err)
			})
			runSum += d
			b.set("experiments.run_s."+s.ID, d.Seconds())
		}
	})
	sims := float64(simsched.RunCount() - simRuns)
	b.set("experiments.sim_runs", sims)
	b.set("experiments.cal_runs", float64(mem.CalibrateRuns()-calRuns))
	b.set("experiments.us_per_sim_run", runSum.Seconds()*1e6/sims)
	b.set("experiments.pass_s", pass.Seconds())
	// The parts must add up to the pass: what is left over is time the
	// harness cannot attribute to calibration or to an experiment.
	gap := float64(selfTimes(tr.spans)[root]) / float64(pass.Nanoseconds())
	b.set("experiments.unattributed_pct", gap*100)
	b.res.check(gap <= 0.05, 1, "experiments: %.1f%% of the pass is in no part (limit 5%%)", gap*100)

	// Simulated results a speed-only change must leave alone; the
	// digests pin them too, these name the two headline figures.
	if v, err := cell(tables["X2"], 0, 1); err == nil {
		b.set("experiments.model_err_pct", v)
	} else {
		b.res.check(false, 1, "X2 mean model error: %v", err)
	}
	if v, err := cell(tables["F14"], -1, 3); err == nil {
		b.set("experiments.dyn_gmean_speedup_x", v)
	} else {
		b.res.check(false, 1, "F14 D-MTL geomean: %v", err)
	}

	// The same experiment on one worker and on P, each from a new
	// environment so neither inherits the other's baseline memo.
	spec, _ := experiments.Find(jSpeedupSpec)
	at := func(j int) time.Duration {
		env, err := experiments.NewEnv(false, experiments.Options{}) // calibration is cached by now
		b.res.check(err == nil, 1, "experiments.NewEnv: %v", err)
		parallel.SetDefault(j)
		return tr.timed(fmt.Sprintf("parallel.%s.j%d", spec.ID, j), 0, func(int64) {
			_, err := spec.Run(env.WithWorkers(j))
			b.res.check(err == nil, 1, "experiments %s at -j %d: %v", spec.ID, j, err)
		})
	}
	b.set("parallel.j_speedup_x", at(1).Seconds()/at(p).Seconds())
}

// simLayers runs every simulator-side probe and pass.
func (b *budget) simLayers() error {
	var expected sweepExpected
	if err := readJSON(expectedPath(b.rc, "sim_sweep.json"), &expected); err != nil {
		return err
	}
	dram, sweep := b.traces["sim_dram"], b.traces["sim_sweep"]
	var cal mem.Calibration
	dram.timed("sim_dram.layers", 0, func(id int64) {
		b.probeSim(dram, id)
		cal = b.probeMem(dram, id)
	})
	sweep.timed("sim_sweep.layers", 0, func(id int64) {
		params := contend.FromCalibration(cal)
		b.probeFluid(sweep, id, params)
		b.probeSimsched(sweep, id, params)
	})
	b.passExperiments(b.traces["sim_sweep"], expected)
	return nil
}
