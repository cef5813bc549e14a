package main

import (
	"fmt"
	"math"
	"time"

	"memthrottle/host"
	"memthrottle/internal/stats"
)

// stages accumulates the per-stage durations of traced jobs, in ns.
type stages map[string][]float64

func (s stages) add(name string, from, to int64) { s[name] = append(s[name], float64(to-from)) }

func (s stages) p(name string, q, div float64) float64 { return percentile(s[name], q) / div }

// schedCounters sums what Run's per-domain stats say the workers did.
type schedCounters struct {
	pairs, parks, steals, spills int
	idle                         time.Duration
}

func (c *schedCounters) add(st host.Stats) {
	c.pairs += st.CompletedPairs
	for _, d := range st.Domains {
		c.parks += d.Parks
		c.steals += d.Steals + d.RemoteSteals
		c.spills += d.Spills
		c.idle += d.Idle
	}
}

func (c *schedCounters) perKPair(n int) float64 { return 1000 * float64(n) / float64(c.pairs) }

// hostScale stretches the traced passes with the run's seconds; 1 at
// the benchmark's own run length.
func (b *budget) hostScale() float64 { return b.rc.seconds / b.rc.nominal }

// --- host_dispatch traced ---

func (b *budget) passDispatch(tr *tracer) error {
	h, err := newHostDispatch()
	if err != nil {
		return err
	}
	defer h.close()
	runs := int(1000 * b.hostScale())
	jobs := runs * dispatchPairs
	step := b.rc.seed

	// The fixed cost of one Run: one pair, nothing to overlap.
	one := h.pairs[:1]
	arm1 := func() { h.bufs[0].arm(step, nil) }
	var fixedUs []float64
	tr.timed("host.Run.one_pair", 0, func(int64) {
		fixedUs, _, _ = runBlock(h.rt, one, 2000, dispatchMTL, arm1, "host_dispatch one pair", b.res)
	})
	b.set("host.run.fixed_us", percentile(fixedUs, 0.50))

	var sched schedCounters
	var wall float64
	m0 := mallocs()
	tr.timed("host.Run.dispatch", 0, func(int64) {
		arm := func() { h.armPairs(step) }
		for i := 0; i < runs; i++ {
			_, w, st := runBlock(h.rt, h.pairs, 1, dispatchMTL, arm, "host_dispatch traced", b.res)
			wall += w
			sched.add(st)
		}
	})
	b.set("host.alloc.dispatch_per_pair", float64(mallocs()-m0)/float64(runs*dispatchPairs))
	verifyBuffers(h.bufs[:dispatchPairs], runs*dispatchPairs+2000, "host_dispatch traced Run", b.res)
	b.set("host.dispatch.run_pairs_per_s", float64(sched.pairs)/wall)
	b.set("host.dispatch.parks_per_kpair", sched.perKPair(sched.parks))
	b.set("host.dispatch.steals_per_kpair", sched.perKPair(sched.steals))
	b.set("host.dispatch.spills_per_kpair", sched.perKPair(sched.spills))

	var st host.ServeStats
	tr.timed("host.Serve.dispatch", 0, func(int64) { wall, st = h.servePath(jobs, step, b.res) })
	b.set("host.dispatch.serve_jobs_per_s", float64(jobs)/wall)
	b.set("host.dispatch.admit_batch_size", float64(st.AdmittedJobs)/float64(max(st.AdmitBatches, 1)))
	return nil
}

// --- host_stream traced ---

func (b *budget) passStream(tr *tracer) error {
	runs := max(int(40*b.hostScale()), 4)
	h, err := newHostStream(b.rc.seed, streamConfig())
	if err != nil {
		return err
	}
	h.runs(2, b.res) // warm
	h.clk.traced = true
	h.clk.base = tr.base
	st := make(stages)
	var sched schedCounters
	var wall float64
	var body int64
	peak := 0
	m0 := mallocs()
	for i := 0; i < runs; i++ {
		start := tr.now()
		_, w, rs := h.runs(1, b.res)
		root := tr.add("host.Run", 0, start, tr.now())
		wall += w
		sched.add(rs)
		peak = max(peak, rs.MaxConcurrentM)
		for k := range h.recs {
			r := &h.recs[k]
			st.add("mem", r.memStart, r.memEnd)
			st.add("comp", r.compStart, r.compEnd)
			st.add("scat", r.scatStart, r.scatEnd)
			st.add("mem_to_comp", r.memEnd, r.compStart)
			st.add("comp_to_scat", r.compEnd, r.scatStart)
			body += (r.memEnd - r.memStart) + (r.compEnd - r.compStart) + (r.scatEnd - r.scatStart)
			pair := tr.add("pair", root, r.memStart, r.scatEnd)
			tr.add("task.mem", pair, r.memStart, r.memEnd)
			tr.add("task.comp", pair, r.compStart, r.compEnd)
			tr.add("task.scat", pair, r.scatStart, r.scatEnd)
		}
	}
	b.set("host.alloc.stream_per_pair", float64(mallocs()-m0)/float64(sched.pairs))
	h.verifyAll(b.res)
	h.close()

	capacity := float64(h.workers) * wall * 1e9 // worker-ns available
	b.set("host.stream.pairs_per_s", float64(sched.pairs)/wall)
	b.set("host.stream.mem_us_p50", st.p("mem", 0.50, 1e3))
	b.set("host.stream.comp_us_p50", st.p("comp", 0.50, 1e3))
	b.set("host.task.scat_us_p50", st.p("scat", 0.50, 1e3))
	b.set("host.handoff.mem_to_comp_us_p50", st.p("mem_to_comp", 0.50, 1e3))
	b.set("host.handoff.comp_to_scat_us_p50", st.p("comp_to_scat", 0.50, 1e3))
	b.set("host.sched.busy_share", float64(body)/capacity)
	b.set("host.sched.idle_share", float64(sched.idle.Nanoseconds())/capacity)
	b.set("host.sched.parks_per_kpair", sched.perKPair(sched.parks))
	b.set("host.sched.steals_per_kpair", sched.perKPair(sched.steals))
	b.set("host.sched.spills_per_kpair", sched.perKPair(sched.spills))
	b.set("host.gate.peak_m", float64(peak))

	// The same pairs under the paper's controller. Which MTL it
	// settles on decides the throughput, so this is a layer metric
	// only: it is bimodal from run to run.
	workers, _ := machineRule()
	d, err := newHostStream(b.rc.seed, host.Config{Workers: workers, Policy: host.Dynamic})
	if err != nil {
		return err
	}
	defer d.close()
	var last host.Stats
	decisions := 0
	tr.timed("host.Run.dynamic", 0, func(int64) {
		wall = 0
		for i := 0; i < runs; i++ {
			_, w, rs := d.runs(1, b.res)
			wall, last = wall+w, rs
			decisions += len(rs.MTLDecisions)
		}
	})
	b.set("host.ctl.dynamic_pairs_per_s", float64(runs*streamPairs)/wall)
	b.set("host.ctl.final_mtl", float64(last.FinalMTL))
	b.set("host.ctl.decisions", float64(decisions))
	return nil
}

// --- host_serve traced ---

func (b *budget) passServe(tr *tracer) error {
	h, err := newHostServe()
	if err != nil {
		return err
	}
	defer h.close()
	step := b.rc.seed
	h.fire(serveFireJobs/4, step, b.res) // warm

	// Capacity, untraced and traced in alternation: the difference of
	// the medians is what the closures' own stamps cost.
	jobs := max(int(4000*b.hostScale()), 500)
	recs := make([]jobRec, jobs)
	var plain, traced []float64
	var allocs uint64
	for round := 0; round < 3; round++ {
		h.clk.traced = false
		m0 := mallocs()
		w, _ := h.fire(jobs, step, b.res)
		allocs += mallocs() - m0
		plain = append(plain, w)
		h.clk.traced, h.clk.base = true, tr.base
		tr.timed("host.Serve.firehose", 0, func(int64) {
			w, _ = firehose(h.rt, h.bufs[:serveHot], serveFireQueue, jobs, h.mtl, step, recs, "host_serve traced firehose", b.res)
		})
		verifyBuffers(h.bufs, jobs, "host_serve traced firehose", b.res)
		traced = append(traced, w)
	}
	b.set("host.alloc.serve_per_job", float64(allocs)/float64(3*jobs))
	b.set("host.serve.sat_jobs_per_s", float64(jobs)/median(plain))
	b.set("host.trace.overhead_pct", 100*(median(traced)-median(plain))/median(plain))

	// The open loop at the benchmark's rate, every stage stamped.
	recs, st, tail := h.openLoop(serveRate, 2.5*b.hostScale(), b.rc.seed, b.res)
	// openLoop restarts the clock; spans are placed on the tracer's.
	shift := h.clk.base.Sub(tr.base).Nanoseconds()
	stg := make(stages)
	n := 0
	for i := range recs {
		r := &recs[i]
		if r.rejected {
			continue
		}
		n++
		stg.add("late", r.due, r.subStart)
		stg.add("submit", r.subStart, r.subEnd)
		stg.add("wait", r.subEnd, r.memStart)
		stg.add("mem", r.memStart, r.memEnd)
		stg.add("handoff", r.memEnd, r.compStart)
		stg.add("comp", r.compStart, r.compEnd)
		stg.add("total", r.due, r.compEnd)
		job := tr.add("job", 0, r.due+shift, r.compEnd+shift)
		tr.add("gen.late", job, r.due+shift, r.subStart+shift)
		tr.add("ingress.submit", job, r.subStart+shift, r.subEnd+shift)
		tr.add("admit.wait", job, min(r.subEnd, r.memStart)+shift, r.memStart+shift)
		tr.add("task.mem", job, r.memStart+shift, r.memEnd+shift)
		tr.add("handoff.mem_to_comp", job, r.memEnd+shift, r.compStart+shift)
		tr.add("task.comp", job, r.compStart+shift, r.compEnd+shift)
	}
	// The stages tile due→complete, so their means must add up to its
	// mean; a gap means a stamp is missing or misplaced.
	var parts float64
	for _, name := range []string{"late", "submit", "wait", "mem", "handoff", "comp"} {
		parts += stats.Mean(stg[name])
	}
	total := stats.Mean(stg["total"])
	b.set("host.serve.stage_sum_gap_pct", 100*(parts-total)/total)
	b.res.check(n > 0 && math.Abs(parts-total) <= 0.01*total, 1, "host_serve: stage means add to %.0f ns, mean due→complete is %.0f ns", parts, total)

	b.set("host.gen.late_us_p50", stg.p("late", 0.50, 1e3))
	b.set("host.gen.late_us_p99", stg.p("late", 0.99, 1e3))
	b.set("host.ingress.submit_ns_p50", stg.p("submit", 0.50, 1))
	b.set("host.ingress.submit_ns_p99", stg.p("submit", 0.99, 1))
	b.set("host.admit.wait_us_p50", stg.p("wait", 0.50, 1e3))
	b.set("host.admit.wait_us_p99", stg.p("wait", 0.99, 1e3))
	b.set("host.admit.batch_size", float64(st.AdmittedJobs)/float64(max(st.AdmitBatches, 1)))
	b.set("host.admit.queue_lat_us_p99", float64(st.QueueLatency.P99().Nanoseconds())/1e3)
	b.set("host.exec.service_lat_us_p99", float64(st.ServiceLatency.P99().Nanoseconds())/1e3)
	b.set("host.task.mem_us_p50", stg.p("mem", 0.50, 1e3))
	b.set("host.task.comp_us_p50", stg.p("comp", 0.50, 1e3))
	b.set("host.handoff.mem_to_comp_ns_p50", stg.p("handoff", 0.50, 1))
	b.set("host.handoff.mem_to_comp_ns_p99", stg.p("handoff", 0.99, 1))
	b.set("host.finish.drain_tail_us", float64(tail.Nanoseconds())/1e3)
	b.set("host.serve.lat_p50_us.traced", stg.p("total", 0.50, 1e3))
	b.set("host.serve.lat_p99_us.raw", stg.p("total", 0.99, 1e3))

	// Four times the rate, ~60% of what the worker sustains: queueing
	// sets the latency. Too noisy to bound, so it is reported here
	// only, and its checks are not counted.
	h.clk.traced = false
	recs, _, _ = h.openLoop(serveHighRate, 1.5*b.hostScale(), b.rc.seed+1, newResult())
	_, latUs, _ := latencies(recs)
	b.set("host.serve.lat_p50_us.r8000", percentile(latUs, 0.50))
	b.set("host.serve.lat_p99_us.r8000", percentile(latUs, 0.99))
	return nil
}

// hostLayers runs the three traced host passes.
func (b *budget) hostLayers() error {
	for _, pass := range []struct {
		workload string
		run      func(*tracer) error
	}{
		{"host_dispatch", b.passDispatch},
		{"host_stream", b.passStream},
		{"host_serve", b.passServe},
	} {
		if err := pass.run(b.traces[pass.workload]); err != nil {
			return fmt.Errorf("%s traced pass: %w", pass.workload, err)
		}
	}
	return nil
}
