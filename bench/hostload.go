package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"memthrottle/host"
)

// jobRec holds the timestamps of one job (or one pair of one Run), in
// ns since the pass began. The submitter writes due, subStart and
// subEnd; the task closures write the rest. An untraced run stamps
// only what latency needs (due, subStart, compEnd).
type jobRec struct {
	due, subStart, subEnd int64
	memStart, memEnd      int64
	compStart, compEnd    int64
	scatStart, scatEnd    int64
	rejected              bool
}

// clock stamps task closures; traced turns the per-stage stamps on.
type clock struct {
	base   time.Time
	traced bool
}

func (c *clock) now() int64 { return time.Since(c.base).Nanoseconds() }

// buffer is one job's array with its checksum state: a gather task
// that fills it and a compute task that sums it. A job that is
// submitted while the buffer's previous job is still in flight would
// corrupt both checksums, so the submitter marks it busy and the
// compute task, the job's last, clears the mark.
type buffer struct {
	data   []int64
	passes int64
	gen    int64 // base of the values the next gather writes
	acc    int64 // sum of every compute result so far
	want   int64 // what acc must be once every job has finished
	busy   atomic.Bool
	clk    *clock
	rec    *jobRec // where this job's closures stamp; nil: nowhere
	pair   host.Pair
	_      [64]byte // keep neighbours' acc off this cache line
}

func newBuffers(n, bytes int, passes int64, clk *clock) []*buffer {
	bufs := make([]*buffer, n)
	for i := range bufs {
		b := &buffer{data: make([]int64, bytes/8), passes: passes, clk: clk}
		b.pair = host.Pair{Memory: b.gather, Compute: b.compute}
		for j := range b.data { // touch every page before timing
			b.data[j] = int64(j)
		}
		bufs[i] = b
	}
	return bufs
}

func (b *buffer) gather() {
	r := b.rec
	if r != nil && b.clk.traced {
		r.memStart = b.clk.now()
	}
	g := b.gen
	for j := range b.data {
		b.data[j] = g + int64(j)
	}
	if r != nil && b.clk.traced {
		r.memEnd = b.clk.now()
	}
}

func (b *buffer) compute() {
	r := b.rec
	if r != nil && b.clk.traced {
		r.compStart = b.clk.now()
	}
	var acc int64
	for p := int64(0); p < b.passes; p++ {
		for _, v := range b.data {
			acc += v
		}
	}
	b.acc += acc
	if r != nil {
		r.compEnd = b.clk.now()
	}
	b.busy.Store(false)
}

// arm prepares the buffer for its next job: new values to write (a
// step the seed chooses, never 0), the checksum they must produce, and
// where to stamp.
func (b *buffer) arm(seed int64, rec *jobRec) {
	b.gen += 2*seed + 1
	n := int64(len(b.data))
	b.want += b.passes * (n*(n-1)/2 + n*b.gen)
	b.rec = rec
}

// disarm undoes arm for a job that was never accepted.
func (b *buffer) disarm(seed int64) {
	n := int64(len(b.data))
	b.want -= b.passes * (n*(n-1)/2 + n*b.gen)
	b.gen -= 2*seed + 1
	b.busy.Store(false)
}

// verify counts one attempted operation per job that used the buffers
// and fails them all if any checksum is off.
func verifyBuffers(bufs []*buffer, jobs int, what string, res *result) {
	for i, b := range bufs {
		if b.acc != b.want {
			res.check(false, jobs, "%s: buffer %d checksum %d, want %d", what, i, b.acc, b.want)
			return
		}
	}
	res.check(true, jobs, "")
}

// checkRun applies the invariants every Run must keep.
func checkRun(st host.Stats, err error, mtl int, what string, res *result) {
	res.check(err == nil && st.CompletedPairs == st.Pairs && st.MaxConcurrentM <= mtl, 1,
		"%s: Run err=%v completed %d of %d pairs, peak memory tasks %d (MTL %d)", what, err, st.CompletedPairs, st.Pairs, st.MaxConcurrentM, mtl)
}

// checkDrain applies the invariants every Drain must keep; want is
// the number of jobs the submitter had accepted.
func checkDrain(st host.ServeStats, err error, want int64, mtl int, what string, res *result) {
	ok := err == nil && st.Submitted == st.Completed+st.Failed+st.Dropped && st.MaxConcurrentM <= mtl &&
		st.Completed == want && st.Failed == 0 && st.Dropped == 0 && st.Rejected == 0
	res.check(ok, 1, "%s: Drain err=%v submitted %d completed %d failed %d dropped %d rejected %d (accepted %d), peak memory tasks %d (MTL %d)",
		what, err, st.Submitted, st.Completed, st.Failed, st.Dropped, st.Rejected, want, st.MaxConcurrentM, mtl)
}

// runBlock makes n closed-loop Run calls over the same pairs and
// returns each call's latency in µs, the block's wall time and the
// last call's stats. arm is called before every Run to give the pairs
// fresh inputs.
func runBlock(rt *host.Runtime, pairs []host.Pair, n, mtl int, arm func(), what string, res *result) (latUs []float64, wall float64, last host.Stats) {
	latUs = make([]float64, n)
	for i := range latUs {
		arm()
		t0 := time.Now()
		st, err := rt.Run(pairs)
		d := time.Since(t0)
		latUs[i] = float64(d.Nanoseconds()) / 1e3
		wall += d.Seconds()
		checkRun(st, err, mtl, what, res)
		last = st
	}
	return latUs, wall, last
}

// firehose submits n jobs from one submitter as fast as Submit takes
// them (ShedBlock: a full queue blocks the submitter) and drains
// inside the timed region, so the wall time covers every job end to
// end. It returns the wall time and the session's stats.
func firehose(rt *host.Runtime, bufs []*buffer, queue, n, mtl int, seed int64, recs []jobRec, what string, res *result) (wall float64, st host.ServeStats) {
	srv, err := rt.Serve(host.ServeConfig{Queue: queue, Shed: host.ShedBlock})
	if err != nil {
		res.check(false, n, "%s: Serve: %v", what, err)
		return 0, st
	}
	t0 := time.Now()
	var accepted int64
	for k := 0; k < n; k++ {
		b := bufs[k%len(bufs)]
		for b.busy.Load() { // its previous job is still in flight
			runtime.Gosched()
		}
		b.busy.Store(true)
		var rec *jobRec
		if recs != nil {
			rec = &recs[k]
		}
		b.arm(seed, rec)
		if err := srv.Submit(b.pair); err != nil {
			b.disarm(seed)
			res.check(false, 1, "%s: Submit: %v", what, err)
			continue
		}
		accepted++
	}
	st, err = srv.Drain(context.Background())
	wall = time.Since(t0).Seconds()
	checkDrain(st, err, accepted, mtl, what, res)
	return wall, st
}

// --- host_dispatch ---

// Sizes of host_dispatch. Bodies are ~1 µs (2 KiB, one pass), so the
// deque, ring, gate and wake-up cost is the result. Workers and MTL
// are those of BenchmarkHostRuntimeThroughput8, whatever the CPU
// count, for continuity with BENCH_SIM.json.
const (
	dispatchWorkers   = 8
	dispatchMTL       = 2
	dispatchPairs     = 128
	dispatchBytes     = 2 << 10
	dispatchBuffers   = 2048 // > queue + everything a worker can hold
	dispatchQueue     = 1024
	dispatchRunsIter  = 1000   // Run calls per iteration (~0.15 s)
	dispatchJobsIter  = 128000 // firehose jobs per iteration (~0.2 s)
	dispatchPairsIter = dispatchRunsIter * dispatchPairs
)

// hostDispatch drives the same tiny jobs through both dispatch paths,
// deques+steal (Run) and ring+pump (Serve), in every iteration, so a
// win for one path that costs the other shows in one number.
type hostDispatch struct {
	rt    *host.Runtime
	clk   *clock
	bufs  []*buffer
	pairs []host.Pair
	seed  int64
}

func newHostDispatch() (*hostDispatch, error) {
	rt, err := host.New(host.Config{Workers: dispatchWorkers, Policy: host.Static, MTL: dispatchMTL, W: 8})
	if err != nil {
		return nil, err
	}
	h := &hostDispatch{rt: rt, clk: &clock{base: time.Now()}}
	h.bufs = newBuffers(dispatchBuffers, dispatchBytes, 1, h.clk)
	for _, b := range h.bufs[:dispatchPairs] {
		h.pairs = append(h.pairs, b.pair)
	}
	return h, nil
}

func setupHostDispatch(rc *runConfig) (instance, error) {
	h, err := newHostDispatch()
	if err != nil {
		return nil, err
	}
	h.seed = rc.seed
	warm := newResult()
	h.runPath(dispatchRunsIter/2, rc.seed, warm)
	h.servePath(dispatchJobsIter/2, rc.seed, warm)
	if warm.failed > 0 {
		h.close()
		return nil, fmt.Errorf("warm-up: %v", warm.problems)
	}
	return h, nil
}

func (h *hostDispatch) close() { h.rt.Close() }

// armPairs gives the pairs of the Run path fresh inputs.
func (h *hostDispatch) armPairs(seed int64) {
	for _, b := range h.bufs[:dispatchPairs] {
		b.arm(seed, nil)
	}
}

func (h *hostDispatch) runPath(runs int, seed int64, res *result) (latUs []float64, wall float64, last host.Stats) {
	latUs, wall, last = runBlock(h.rt, h.pairs, runs, dispatchMTL, func() { h.armPairs(seed) }, "host_dispatch", res)
	verifyBuffers(h.bufs[:dispatchPairs], runs*dispatchPairs, "host_dispatch Run", res)
	return latUs, wall, last
}

func (h *hostDispatch) servePath(jobs int, seed int64, res *result) (wall float64, st host.ServeStats) {
	wall, st = firehose(h.rt, h.bufs, dispatchQueue, jobs, dispatchMTL, seed, nil, "host_dispatch Serve", res)
	verifyBuffers(h.bufs, jobs, "host_dispatch Serve", res)
	return wall, st
}

func (h *hostDispatch) measure(seconds float64, res *result) {
	start := time.Now()
	for i := 0; i == 0 || timeLeft(start, seconds); i++ {
		c0 := cpuSeconds()
		latUs, runWall, _ := h.runPath(dispatchRunsIter, h.seed, res)
		serveWall, _ := h.servePath(dispatchJobsIter, h.seed, res)
		res.add("wall_s", runWall+serveWall)
		res.add("cpu_s", cpuSeconds()-c0)
		res.add("lat_p50_us", percentile(latUs, 0.50))
		res.add("lat_p99_us", tail(latUs))
		res.add("info.pairs_per_s", dispatchPairsIter/runWall)
		res.add("info.sat_jobs_per_s", dispatchJobsIter/serveWall)
	}
}

// --- host_stream ---

// Sizes of host_stream: the paper's regime. Bodies are >95% of the
// time, so a dispatch change must not move it, but the MTL is below
// the worker count, so the gate refuses and scatter re-admission runs.
const (
	streamPairs    = 64
	streamBytes    = 1 << 20
	streamPasses   = 4
	streamRunsIter = 10 // Run calls per iteration (~0.35 s)
)

// streamPair is one gather-compute-scatter pair over three disjoint
// arrays.
type streamPair struct {
	src, buf, dst []int64
	acc, want     int64
	clk           *clock
	rec           *jobRec
	_             [64]byte
}

func (p *streamPair) gather() {
	if p.clk.traced {
		p.rec.memStart = p.clk.now()
	}
	copy(p.buf, p.src)
	if p.clk.traced {
		p.rec.memEnd = p.clk.now()
	}
}

func (p *streamPair) compute() {
	if p.clk.traced {
		p.rec.compStart = p.clk.now()
	}
	var acc int64
	for i := 0; i < streamPasses; i++ {
		for _, v := range p.buf {
			acc += v
		}
	}
	p.acc = acc
	if p.clk.traced {
		p.rec.compEnd = p.clk.now()
	}
}

func (p *streamPair) scatter() {
	if p.clk.traced {
		p.rec.scatStart = p.clk.now()
	}
	copy(p.dst, p.buf)
	if p.clk.traced {
		p.rec.scatEnd = p.clk.now()
	}
}

// probes are the dst words checked after every Run; the whole array
// is checked once when the run ends.
func (p *streamPair) probes() [3]int { return [3]int{0, len(p.dst) / 2, len(p.dst) - 1} }

type hostStream struct {
	rt      *host.Runtime
	mtl     int
	clk     *clock
	sp      []*streamPair
	pairs   []host.Pair
	recs    []jobRec // one per pair, restamped by every traced Run
	workers int
}

func newHostStream(seed int64, cfg host.Config) (*hostStream, error) {
	rt, err := host.New(cfg)
	if err != nil {
		return nil, err
	}
	h := &hostStream{rt: rt, mtl: cfg.MTL, workers: cfg.Workers, clk: &clock{base: time.Now()}, recs: make([]jobRec, streamPairs)}
	words := streamBytes / 8
	for i := 0; i < streamPairs; i++ {
		p := &streamPair{src: make([]int64, words), buf: make([]int64, words), dst: make([]int64, words), clk: h.clk, rec: &h.recs[i]}
		for j := range p.src {
			p.src[j] = seed*1_000_003 + int64(i)*131 + int64(j)
			p.want += streamPasses * p.src[j]
			p.buf[j], p.dst[j] = -1, -1 // touch every page before timing
		}
		h.sp = append(h.sp, p)
		h.pairs = append(h.pairs, host.Pair{Memory: p.gather, Compute: p.compute, Scatter: p.scatter})
	}
	return h, nil
}

func streamConfig() host.Config {
	workers, mtl := machineRule()
	return host.Config{Workers: workers, Policy: host.Static, MTL: mtl}
}

func setupHostStream(rc *runConfig) (instance, error) {
	h, err := newHostStream(rc.seed, streamConfig())
	if err != nil {
		return nil, err
	}
	warm := newResult()
	h.runs(4, warm)
	if warm.failed > 0 {
		h.close()
		return nil, fmt.Errorf("warm-up: %v", warm.problems)
	}
	return h, nil
}

func (h *hostStream) close() { h.rt.Close() }

// runs makes n Run calls, checking every pair's checksum and three
// words of every dst after each.
func (h *hostStream) runs(n int, res *result) (latUs []float64, wall float64, last host.Stats) {
	arm := func() {
		for _, p := range h.sp {
			p.acc = 0
			for _, k := range p.probes() {
				p.dst[k] = -1
			}
		}
	}
	mtl := h.mtl
	if mtl == 0 { // an adaptive policy may go as high as the worker count
		mtl = h.workers
	}
	latUs = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		l, w, st := runBlock(h.rt, h.pairs, 1, mtl, arm, "host_stream", res)
		latUs, wall, last = append(latUs, l...), wall+w, st
		ok := true
		for _, p := range h.sp {
			ok = ok && p.acc == p.want
			for _, k := range p.probes() {
				ok = ok && p.dst[k] == p.src[k]
			}
		}
		res.check(ok, streamPairs, "host_stream: a pair's checksum or scattered words are wrong after a Run")
	}
	return latUs, wall, last
}

// verifyAll compares every scattered array with its source in full.
func (h *hostStream) verifyAll(res *result) {
	for i, p := range h.sp {
		for j := range p.dst {
			if p.dst[j] != p.src[j] {
				res.check(false, 1, "host_stream: pair %d dst[%d] = %d, want %d", i, j, p.dst[j], p.src[j])
				return
			}
		}
	}
	res.check(true, 1, "")
}

func (h *hostStream) measure(seconds float64, res *result) {
	start := time.Now()
	for i := 0; i == 0 || timeLeft(start, seconds); i++ {
		c0 := cpuSeconds()
		latUs, wall, _ := h.runs(streamRunsIter, res)
		res.add("wall_s", wall)
		res.add("cpu_s", cpuSeconds()-c0)
		res.add("lat_p50_us", percentile(latUs, 0.50))
		res.add("lat_p99_us", tail(latUs))
		res.add("info.pairs_per_s", streamRunsIter*streamPairs/wall)
	}
	h.verifyAll(res)
}

// --- host_serve ---

// Sizes of host_serve. 2000 jobs/s is about a seventh of what one
// worker sustains. Queueing is light, so the median is the dispatch
// path plus the body and the tail a short queue behind one job. At
// twice the rate (ISSUE 11 proposed three times) the same code read a
// median anywhere from 68 to 79 us and a tail from 166 to 212 us in four
// back-to-back runs, against 87-90 and 186-204 us here: the tail of a
// queue grows faster than the service time, so it multiplies every
// percent the host's speed drifts by. serveHighRate in the traced run
// reports the loaded case, unbounded. The firehose that follows the
// open loop measures the capacity the rate is a share of.
const (
	serveRate        = 2000.0 // open-loop arrivals per second
	serveHighRate    = 8000.0 // the traced run's second open loop: ~60% load
	serveBytes       = 256 << 10
	servePasses      = 4
	serveHot         = 64 // buffers in rotation: a 16 MiB working set
	serveLanes       = 8  // spare sets of serveHot buffers a backlog spills into
	serveQueue       = 4096
	serveFireQueue   = 32    // firehose: queue + workers' hands stay below serveHot
	serveFireJobs    = 2000  // firehose jobs per iteration (~0.2 s)
	serveOpenShare   = 0.6   // of the timed region; the firehose gets the rest
	serveWindowNs    = 200e6 // ~400 arrivals: the tail is the p97.5, ten samples beyond it
	serveWindowMin   = 300   // fewer (the ragged last window): dropped
	serveLateLimitUs = 20.0  // generator lateness p50 above this: the pacing failed
)

// serveRule is the runtime size of host_serve. The load generator
// yields in a loop until each arrival is due, so it is a busy thread of
// its own: it gets one CPU and the workers the rest (up to four). With
// as many workers as CPUs a generator that yields while every worker is
// busy is not run again until one parks, the backlog that builds keeps
// them busy, and the latencies measure that starvation (p99 ~4 ms at
// 30% load, following the host's mood) instead of the runtime.
func serveRule() (workers, mtl int) {
	workers = max(1, min(runtime.NumCPU()-1, 4))
	return workers, max(1, workers/2)
}

type hostServe struct {
	rt   *host.Runtime
	mtl  int
	clk  *clock
	bufs []*buffer
	seed int64
}

func newHostServe() (*hostServe, error) {
	workers, mtl := serveRule()
	rt, err := host.New(host.Config{Workers: workers, Policy: host.Static, MTL: mtl})
	if err != nil {
		return nil, err
	}
	h := &hostServe{rt: rt, mtl: mtl, clk: &clock{}}
	h.bufs = newBuffers(serveHot*serveLanes, serveBytes, servePasses, h.clk)
	return h, nil
}

func setupHostServe(rc *runConfig) (instance, error) {
	h, err := newHostServe()
	if err != nil {
		return nil, err
	}
	h.seed = rc.seed
	warm := newResult()
	h.fire(2*serveFireJobs, rc.seed, warm)
	if warm.failed > 0 {
		h.close()
		return nil, fmt.Errorf("warm-up: %v", warm.problems)
	}
	return h, nil
}

func (h *hostServe) close() { h.rt.Close() }

func (h *hostServe) fire(jobs int, seed int64, res *result) (wall float64, st host.ServeStats) {
	wall, st = firehose(h.rt, h.bufs[:serveHot], serveFireQueue, jobs, h.mtl, seed, nil, "host_serve firehose", res)
	verifyBuffers(h.bufs, jobs, "host_serve firehose", res)
	return wall, st
}

// pick returns the buffer for arrival k: the next of the serveHot in
// rotation, or, when that one's previous job is still in flight (a
// stall has let a backlog build), the same slot of a spare lane. With
// every lane busy the backlog is hundreds of jobs deep; the generator
// then waits for a buffer, and the wait is charged to the arrivals it
// delays, as any lateness of the generator is.
func (h *hostServe) pick(k int) *buffer {
	for {
		for lane := 0; lane < serveLanes; lane++ {
			if b := h.bufs[lane*serveHot+k%serveHot]; !b.busy.Load() {
				return b
			}
		}
		runtime.Gosched()
	}
}

// openLoop submits jobs on a seeded Poisson schedule for dur seconds,
// whatever the runtime does with them, and drains. Each job's record
// carries its due time and the end of its last task, so latency is
// charged from when the job was due: a stall delays the jobs behind
// it and they all pay.
func (h *hostServe) openLoop(rate, dur float64, seed int64, res *result) (recs []jobRec, st host.ServeStats, drainTail time.Duration) {
	due := poissonSchedule(rate, int(rate*dur), seed)
	recs = make([]jobRec, len(due))
	srv, err := h.rt.Serve(host.ServeConfig{Queue: serveQueue, Shed: host.ShedReject})
	if err != nil {
		res.check(false, len(due), "host_serve: Serve: %v", err)
		return nil, st, 0
	}
	h.clk.base = time.Now()
	defer keepAwake()()
	var accepted int64
	for k := range due {
		r := &recs[k]
		r.due = due[k]
		r.subStart = waitUntil(h.clk.base, r.due)
		b := h.pick(k)
		b.busy.Store(true)
		b.arm(seed, r)
		err := srv.Submit(b.pair)
		if h.clk.traced {
			r.subEnd = h.clk.now()
		}
		runtime.Gosched() // hand this P to the worker Submit woke (see keepAwake)
		if err != nil {
			b.disarm(seed)
			r.rejected = true
			continue
		}
		accepted++
	}
	last := h.clk.now()
	st, err = srv.Drain(context.Background())
	drainTail = time.Duration(h.clk.now() - last)
	checkDrain(st, err, accepted, h.mtl, "host_serve open loop", res)
	refused := len(due) - int(accepted)
	res.check(refused == 0, max(refused, 1), "host_serve: %d of %d arrivals refused: the queue was full", refused, len(due))
	verifyBuffers(h.bufs, int(accepted), "host_serve open loop", res)
	return recs, st, drainTail
}

// latencies returns, for the accepted jobs in due order, the due times
// (ns), due→complete latencies and generator lateness (µs).
func latencies(recs []jobRec) (dueNs, latUs, lateUs []float64) {
	for i := range recs {
		r := &recs[i]
		if r.rejected {
			continue
		}
		dueNs = append(dueNs, float64(r.due))
		latUs = append(latUs, float64(r.compEnd-r.due)/1e3)
		lateUs = append(lateUs, float64(r.subStart-r.due)/1e3)
	}
	return dueNs, latUs, lateUs
}

func (h *hostServe) measure(seconds float64, res *result) {
	recs, _, _ := h.openLoop(serveRate, seconds*serveOpenShare, h.seed, res)
	dueNs, latUs, lateUs := latencies(recs)
	p50s, p99s := windowTails(dueNs, latUs, serveWindowNs, serveWindowMin)
	if len(p50s) == 0 { // a run too short for one full window
		p50s, p99s = []float64{percentile(latUs, 0.50)}, []float64{tail(latUs)}
	}
	res.samples["lat_p50_us"] = append(res.samples["lat_p50_us"], p50s...)
	res.samples["lat_p99_us"] = append(res.samples["lat_p99_us"], p99s...)
	late := percentile(lateUs, 0.50)
	res.add("info.gen_late_us_p50", late)
	if late > serveLateLimitUs {
		// Not a failed output check: the program did nothing wrong,
		// the machine was too busy to pace the open loop.
		fmt.Printf("WARNING: host_serve: generator ran late (p50 %.1f µs > %.0f µs); the latencies of this round measure the generator\n", late, serveLateLimitUs)
	}

	start := time.Now()
	for i := 0; i == 0 || timeLeft(start, seconds*(1-serveOpenShare)); i++ {
		c0 := cpuSeconds()
		wall, _ := h.fire(serveFireJobs, h.seed, res)
		res.add("wall_s", wall)
		res.add("cpu_s", cpuSeconds()-c0)
		res.add("info.sat_jobs_per_s", serveFireJobs/wall)
	}
}
