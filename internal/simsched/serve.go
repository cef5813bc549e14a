package simsched

import (
	"fmt"

	"memthrottle/internal/cache"
	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// Arrivals is the arrival-process contract ServeRun consumes,
// satisfied structurally by internal/workload's Poisson and MMPP
// generators. Declared here rather than imported so workload's tests
// can drive simsched without an import cycle.
type Arrivals interface {
	// Next returns the inter-arrival gap to the next job, in seconds.
	Next() float64
	// Rate reports the long-run mean arrival rate, in jobs per second.
	Rate() float64
	// Name identifies the process in reports.
	Name() string
}

// ServeSpec describes one open-loop serving run on the simulated
// machine: jobs (gather-compute pairs) arrive by a seeded arrival
// process, wait in a bounded queue, are admitted under the throttler's
// MTL — the gate doubling as the admission controller — and execute on
// the hardware threads. This is the deterministic substrate of the S1
// experiment: virtual time plus seeded arrivals and noise make every
// run bit-reproducible, unlike the wall-clock host serving path it
// models.
type ServeSpec struct {
	// Arrivals generates inter-arrival gaps (seconds of virtual time).
	Arrivals Arrivals
	// Jobs is the number of arrivals to generate before draining.
	Jobs int
	// Gather is the per-job gather footprint in bytes; Compute the solo
	// compute duration. Both are noised per job exactly as the
	// closed-loop scheduler noises pairs.
	Gather  float64
	Compute sim.Time
	// Queue bounds the pending queue; arrivals finding it full are
	// shed (dropped). Queue <= 0 leaves the queue unbounded — latency
	// then grows without bound past saturation, the no-shedding
	// contrast.
	Queue int
}

// Validate reports a spec error, if any.
func (s ServeSpec) Validate() error {
	if s.Arrivals == nil {
		return fmt.Errorf("simsched: ServeSpec without an arrival process")
	}
	if s.Jobs < 1 {
		return fmt.Errorf("simsched: ServeSpec.Jobs = %d, want >= 1", s.Jobs)
	}
	if s.Gather <= 0 {
		return fmt.Errorf("simsched: ServeSpec.Gather = %g, want > 0", s.Gather)
	}
	if s.Compute <= 0 {
		return fmt.Errorf("simsched: ServeSpec.Compute = %v, want > 0", s.Compute)
	}
	return nil
}

// ServeResult summarises one open-loop run.
type ServeResult struct {
	Policy string

	Arrived   int
	Completed int
	Dropped   int

	// Makespan spans the first arrival to the last completion;
	// Goodput is completed jobs per second of makespan.
	Makespan sim.Time
	Goodput  float64

	// Queue is the per-job admission-wait latency (arrival to MTL-gate
	// admission); Service the admission-to-completion latency; Sojourn
	// the end-to-end arrival-to-completion latency the serving
	// experiments report percentiles of.
	Queue   stats.LatencyHist
	Service stats.LatencyHist
	Sojourn stats.LatencyHist

	PeakQueue     int      // peak pending-queue depth
	PeakActiveMem int      // peak concurrent memory tasks, all domains
	BusyOverhead  sim.Time // total simulated monitoring overhead
	FinalMTL      int
	MTLDecisions  []int
}

// servTask is one in-flight job of the serving simulation.
type servTask struct {
	seq     int
	dom     int
	bytes   float64  // noised gather footprint
	work    sim.Time // noised solo compute duration
	arrived sim.Time
	admit   sim.Time
	gatherT sim.Time // measured gather duration
	w       *worker  // hardware thread carrying the job
	pending int      // compute parts (core work, miss traffic) still running
}

// server is the live state of one ServeRun.
type server struct {
	cfg   Config
	spec  ServeSpec
	th    core.Throttler
	eng   *sim.Engine
	mach  *machine.Machine
	pools []*contend.Pool
	llc   *cache.LLC
	noise *stats.Noise

	queue     []*servTask // pending, arrival order (head at index head)
	head      int
	activeMem []int
	workers   []*worker
	generated int
	inflight  int // admitted jobs not yet completed

	// Completion callbacks bound once per run; the job (or, for
	// freeFn, the worker) travels as the argument.
	gatherDoneFn, computePartFn, freeFn func(any)

	res ServeResult
}

// ServeRun executes one open-loop serving simulation and returns its
// result. The throttler must be freshly constructed per run. Like Run,
// each call owns a private engine and RNGs, so independent runs may
// execute concurrently; everything is seeded, so results are
// bit-identical for identical inputs. Panics on invalid configuration
// or spec.
func ServeRun(cfg Config, spec ServeSpec, th core.Throttler) ServeResult {
	runCount.Add(1)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	eng, poolEng, group := simEngines(cfg)
	s := &server{
		cfg:   cfg,
		spec:  spec,
		th:    th,
		eng:   eng,
		mach:  machine.New(eng, cfg.Machine),
		llc:   cache.NewLLC(cfg.LLCBytes),
		noise: stats.NewNoise(cfg.NoiseSigma, cfg.Seed),
	}
	s.gatherDoneFn, s.computePartFn, s.freeFn = s.finishGather, s.computePart, s.free
	nd := cfg.Machine.Domains()
	s.activeMem = make([]int, nd)
	for d := 0; d < nd; d++ {
		s.pools = append(s.pools, contend.NewPool(poolEng[d], cfg.memParams(d)))
	}
	threads := cfg.Machine.HardwareThreads()
	for i := 0; i < threads; i++ {
		s.workers = append(s.workers, &worker{
			id:   i,
			core: s.mach.Core(i % cfg.Machine.Cores),
			idle: true,
		})
	}
	if cfg.ResidentOverheadBytes > 0 {
		s.llc.Reserve(cfg.ResidentOverheadBytes)
	}

	// The first arrival primes the event loop; every subsequent one is
	// scheduled by its predecessor, so the engine drains exactly when
	// the last job has completed.
	eng.After(sim.Time(spec.Arrivals.Next()), s.arrive)
	drainEngines(eng, group)

	if s.inflight != 0 || s.pending() != 0 {
		panic(fmt.Sprintf("simsched: serve deadlock — %d in flight, %d queued at drain",
			s.inflight, s.pending()))
	}
	s.res.Policy = th.Name()
	s.res.FinalMTL = th.MTL()
	s.res.MTLDecisions = decisions(th)
	if s.res.Makespan > 0 {
		s.res.Goodput = float64(s.res.Completed) / float64(s.res.Makespan)
	}
	return s.res
}

// pending reports the current queue depth.
func (s *server) pending() int { return len(s.queue) - s.head }

// arrive admits or sheds one arrival and schedules the next.
func (s *server) arrive() {
	now := s.eng.Now()
	s.res.Arrived++
	if s.spec.Queue > 0 && s.pending() >= s.spec.Queue {
		s.res.Dropped++
	} else {
		t := &servTask{
			seq:     s.generated,
			dom:     s.generated % len(s.pools),
			bytes:   s.spec.Gather * s.noise.Factor(),
			work:    s.spec.Compute * sim.Time(s.noise.Factor()),
			arrived: now,
		}
		s.queue = append(s.queue, t)
		if d := s.pending(); d > s.res.PeakQueue {
			s.res.PeakQueue = d
		}
		s.dispatchAll()
	}
	s.generated++
	if s.generated < s.spec.Jobs {
		s.eng.After(sim.Time(s.spec.Arrivals.Next()), s.arrive)
	}
}

// dispatchAll offers work to every idle worker.
func (s *server) dispatchAll() {
	for _, w := range s.workers {
		if w.idle {
			s.dispatch(w)
		}
	}
}

// dispatch admits the oldest admissible pending job to w: the MTL gate
// is checked per home domain at dequeue, exactly as the host serving
// path admits against its per-domain gates. The worker carries the job
// end to end — gather under the admission slot, then compute — so a
// busy worker maps one-to-one onto an in-flight request.
func (s *server) dispatch(w *worker) {
	mtl := s.th.MTL()
	idx := -1
	for i := s.head; i < len(s.queue); i++ {
		if s.activeMem[s.queue[i].dom] < mtl {
			idx = i
			break
		}
	}
	if idx < 0 {
		w.idle = true
		return
	}
	t := s.queue[idx]
	if idx == s.head {
		s.queue[s.head] = nil
		s.head++
		if s.head == len(s.queue) {
			s.queue = s.queue[:0]
			s.head = 0
		}
	} else {
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	}
	w.idle = false
	t.w = w
	s.inflight++
	now := s.eng.Now()
	t.admit = now
	s.res.Queue.RecordSeconds(float64(now - t.arrived))
	s.activeMem[t.dom]++
	if a := s.totalActiveMem(); a > s.res.PeakActiveMem {
		s.res.PeakActiveMem = a
	}
	s.llc.Reserve(t.bytes)
	s.pools[t.dom].StartFunc(t.bytes, 1, s.gatherDoneFn, t)
}

func (s *server) totalActiveMem() int {
	n := 0
	for _, a := range s.activeMem {
		n += a
	}
	return n
}

// finishGather releases the admission slot and starts the compute
// half on the worker's core, with LLC-overflow miss traffic charged to
// the job's home domain as in the closed-loop scheduler.
func (s *server) finishGather(arg any) {
	t := arg.(*servTask)
	now := s.eng.Now()
	t.gatherT = now - t.admit
	s.activeMem[t.dom]--
	// A freed slot may admit a queued job on any currently idle worker
	// — but this worker is still busy with t's compute.
	s.dispatchAll()

	missFrac := s.llc.MissFraction()
	t.pending = 1
	if missFrac > 0 {
		t.pending++
		s.pools[t.dom].StartFunc(missFrac*t.bytes, missFrac, s.computePartFn, t)
	}
	t.w.core.StartComputeFunc(t.work, s.computePartFn, t)
}

// computePart is the completion callback of one part of a job's
// compute half; the last part to finish completes the job.
func (s *server) computePart(arg any) {
	t := arg.(*servTask)
	t.pending--
	if t.pending == 0 {
		s.finishCompute(t)
	}
}

// finishCompute completes the job: record latencies, feed the
// throttler, free the worker.
func (s *server) finishCompute(t *servTask) {
	now := s.eng.Now()
	s.llc.Release(t.bytes)
	s.res.Completed++
	s.inflight--
	s.res.Service.RecordSeconds(float64(now - t.admit))
	s.res.Sojourn.RecordSeconds(float64(now - t.arrived))
	if now > s.res.Makespan {
		s.res.Makespan = now
	}
	s.th.OnPair(core.PairSample{Tm: t.gatherT, Tc: now - t.admit - t.gatherT, Now: now})

	if s.th.Monitoring() && s.cfg.MonitorOverhead > 0 {
		s.res.BusyOverhead += s.cfg.MonitorOverhead
		s.eng.AfterFunc(s.cfg.MonitorOverhead, s.freeFn, t.w)
		return
	}
	s.free(t.w)
}

// free returns the worker (arg) to the idle set and offers it work.
func (s *server) free(arg any) {
	w := arg.(*worker)
	w.idle = true
	s.dispatch(w)
}
