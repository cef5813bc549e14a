package host

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countPair returns a minimal pair that bumps counters.
func countPair(mem, comp *atomic.Int64) Pair {
	return Pair{
		Memory:  func() { mem.Add(1) },
		Compute: func() { comp.Add(1) },
	}
}

func newServer(t *testing.T, cfg Config, sc ServeConfig) (*Runtime, *Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	return rt, srv
}

// TestServeBasic streams jobs through the server and checks the full
// accounting: every submitted job completes, tasks ran, latency
// histograms hold exactly the completed jobs.
func TestServeBasic(t *testing.T) {
	var mem, comp atomic.Int64
	_, srv := newServer(t, Config{Workers: 8, Policy: Static, MTL: 2}, ServeConfig{})
	const jobs = 500
	for i := 0; i < jobs; i++ {
		if err := srv.Submit(countPair(&mem, &comp)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != jobs || st.Completed != jobs || st.Failed != 0 {
		t.Fatalf("stats %+v, want %d submitted and completed", st, jobs)
	}
	if mem.Load() != jobs || comp.Load() != jobs {
		t.Fatalf("tasks ran %d/%d, want %d each", mem.Load(), comp.Load(), jobs)
	}
	if st.QueueLatency.Count() != jobs || st.ServiceLatency.Count() != jobs {
		t.Fatalf("histograms hold %d/%d samples, want %d",
			st.QueueLatency.Count(), st.ServiceLatency.Count(), jobs)
	}
	if st.MaxConcurrentM > 2 {
		t.Fatalf("MaxConcurrentM = %d exceeds MTL 2", st.MaxConcurrentM)
	}
	if st.Goodput <= 0 {
		t.Fatal("Goodput not computed")
	}
}

// TestServeScatter checks the second admission: scatter tasks run
// after compute, under a gate slot.
func TestServeScatter(t *testing.T) {
	var mem, comp, scat atomic.Int64
	_, srv := newServer(t, Config{Workers: 4, Policy: Static, MTL: 1}, ServeConfig{})
	const jobs = 200
	for i := 0; i < jobs; i++ {
		if err := srv.Submit(Pair{
			Memory:  func() { mem.Add(1) },
			Compute: func() { comp.Add(1) },
			Scatter: func() { scat.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != jobs || scat.Load() != jobs {
		t.Fatalf("completed %d, scatters %d, want %d", st.Completed, scat.Load(), jobs)
	}
	if st.MaxConcurrentM > 1 {
		t.Fatalf("MaxConcurrentM = %d exceeds MTL 1 with scatters in play", st.MaxConcurrentM)
	}
}

// TestServeReject checks ShedReject: a stuffed queue turns Submit into
// ErrQueueFull, and rejected jobs are counted, not executed.
func TestServeReject(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	_, srv := newServer(t, Config{Workers: 1, Policy: Static, MTL: 1}, ServeConfig{Queue: 2, Shed: ShedReject})
	// One job wedges the single worker; everything else piles into a
	// 2-slot queue.
	blocker := Pair{
		Memory:  func() { once.Do(started.Done); <-release },
		Compute: func() {},
	}
	if err := srv.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	started.Wait()
	var rejected int
	for i := 0; i < 50; i++ {
		err := srv.Submit(Pair{Memory: func() {}, Compute: func() {}})
		if errors.Is(err, ErrQueueFull) {
			rejected++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("no submissions rejected with a full 2-slot queue")
	}
	close(release)
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Rejected) != rejected {
		t.Fatalf("Rejected = %d, want %d", st.Rejected, rejected)
	}
	if st.Completed+st.Failed != st.Submitted {
		t.Fatalf("accounting leak: %+v", st)
	}
}

// TestServeDrop checks ShedDrop: overflow is silently discarded and
// counted.
func TestServeDrop(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	_, srv := newServer(t, Config{Workers: 1, Policy: Static, MTL: 1}, ServeConfig{Queue: 2, Shed: ShedDrop})
	if err := srv.Submit(Pair{
		Memory:  func() { once.Do(started.Done); <-release },
		Compute: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	started.Wait()
	for i := 0; i < 50; i++ {
		if err := srv.Submit(Pair{Memory: func() {}, Compute: func() {}}); err != nil {
			t.Fatalf("ShedDrop must never error: %v", err)
		}
	}
	close(release)
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped == 0 {
		t.Fatal("nothing dropped with a full 2-slot queue")
	}
	if st.Completed != st.Submitted {
		t.Fatalf("accepted jobs must all complete: %+v", st)
	}
}

// TestServeBlock checks ShedBlock: submitters wait for space instead
// of shedding, so every job eventually lands.
func TestServeBlock(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 2, Policy: Static, MTL: 1}, ServeConfig{Queue: 2, Shed: ShedBlock})
	var mem, comp atomic.Int64
	const jobs = 300
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs/4; i++ {
				if err := srv.Submit(countPair(&mem, &comp)); err != nil {
					t.Errorf("blocking submit failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != jobs || st.Dropped != 0 || st.Rejected != 0 {
		t.Fatalf("ShedBlock must deliver everything: %+v", st)
	}
}

// TestServeDrainReleasesBlockedSubmitters checks that Drain unblocks
// ShedBlock waiters with ErrDraining.
func TestServeDrainReleasesBlockedSubmitters(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	_, srv := newServer(t, Config{Workers: 1, Policy: Static, MTL: 1}, ServeConfig{Queue: 1, Shed: ShedBlock})
	if err := srv.Submit(Pair{
		Memory:  func() { once.Do(started.Done); <-release },
		Compute: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	started.Wait()
	// Fill the 1-slot queue, then pile blocked submitters behind it.
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			errs <- srv.Submit(Pair{Memory: func() {}, Compute: func() {}})
		}()
	}
	// Every submitter has either got in or committed to the blocking
	// path; then the wedged job is let go only once the drain has begun,
	// so the blocked ones are released by Drain, not by space.
	for srv.submitted.Load()-1+srv.blockWaiters.Load() < 8 {
		runtime.Gosched()
	}
	go func() {
		for !srv.draining.Load() {
			runtime.Gosched()
		}
		close(release)
	}()
	if _, err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil && !errors.Is(err, ErrDraining) {
			t.Fatalf("blocked submitter got %v, want nil or ErrDraining", err)
		}
	}
}

// TestServeSubmitAfterDrain checks intake is closed after Drain.
func TestServeSubmitAfterDrain(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 2, Policy: Static, MTL: 1}, ServeConfig{})
	if _, err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(Pair{Memory: func() {}, Compute: func() {}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain = %v, want ErrDraining", err)
	}
}

// TestServeExcludesRun checks the mutual exclusion between serving and
// batch runs, and that draining releases the runtime.
func TestServeExcludesRun(t *testing.T) {
	rt, srv := newServer(t, Config{Workers: 2, Policy: Static, MTL: 1}, ServeConfig{})
	if _, err := rt.Run([]Pair{{Memory: func() {}, Compute: func() {}}}); err == nil {
		t.Fatal("Run succeeded while serving")
	}
	if _, err := rt.Serve(ServeConfig{}); err == nil {
		t.Fatal("second Serve succeeded while serving")
	}
	if _, err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run([]Pair{{Memory: func() {}, Compute: func() {}}}); err != nil {
		t.Fatalf("Run after drain: %v", err)
	}
	srv2, err := rt.Serve(ServeConfig{})
	if err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	if _, err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServeFailedJobs checks failure accounting: erroring and
// panicking tasks count as Failed, the rest complete, and retry
// recovers flaky tasks.
func TestServeFailedJobs(t *testing.T) {
	rt, err := New(Config{
		Workers: 4, Policy: Static, MTL: 2,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve(ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var flaky atomic.Int64
	jobs := []Pair{
		{Memory: func() {}, Compute: func() {}},
		{MemoryErr: func() error { return fmt.Errorf("permanent") }, Compute: func() {}},
		{Memory: func() { panic("boom") }, Compute: func() {}},
		{MemoryErr: func() error { // succeeds on attempt 2
			if flaky.Add(1) == 1 {
				return fmt.Errorf("transient")
			}
			return nil
		}, Compute: func() {}},
	}
	for _, p := range jobs {
		if err := srv.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 2 || st.Failed != 2 {
		t.Fatalf("completed %d failed %d, want 2/2", st.Completed, st.Failed)
	}
	if st.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1 (the transient job)", st.Recovered)
	}
	if st.Retries < 3 {
		t.Fatalf("Retries = %d, want >= 3 (2 exhausted + 1 recovery)", st.Retries)
	}
}

// TestServeSubmitValidation checks pair validation at the ingress.
func TestServeSubmitValidation(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 2, Policy: Static, MTL: 1}, ServeConfig{})
	for name, p := range map[string]Pair{
		"no-memory":    {Compute: func() {}},
		"no-compute":   {Memory: func() {}},
		"both-memory":  {Memory: func() {}, MemoryErr: func() error { return nil }, Compute: func() {}},
		"both-scatter": {Memory: func() {}, Compute: func() {}, Scatter: func() {}, ScatterErr: func() error { return nil }},
	} {
		if err := srv.Submit(p); err == nil {
			t.Errorf("%s: Submit accepted an invalid pair", name)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 0 {
		t.Fatalf("invalid pairs were accepted: %+v", st)
	}
}

// TestServeAdaptive streams enough jobs through a Dynamic runtime for
// the controller to act, checking the adaptive plumbing end to end.
func TestServeAdaptive(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 4, Policy: Dynamic, W: 8}, ServeConfig{})
	for i := 0; i < 400; i++ {
		buf := make([]byte, 1<<14) // per-job: workers run these concurrently
		if err := srv.Submit(Pair{
			Memory: func() {
				for i := range buf {
					buf[i]++
				}
			},
			Compute: func() {
				s := 0
				for _, b := range buf {
					s += int(b)
				}
				_ = s
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 400 {
		t.Fatalf("Completed = %d, want 400", st.Completed)
	}
	if st.FinalMTL < 1 || st.FinalMTL > 4 {
		t.Fatalf("FinalMTL = %d outside [1, 4]", st.FinalMTL)
	}
}

// TestServeDomains runs a sharded server and checks the per-domain MTL
// bound: peak concurrency may reach MTL per domain but never exceed
// MTL * domains.
func TestServeDomains(t *testing.T) {
	var mem, comp atomic.Int64
	rt, srv := newServer(t, Config{Workers: 8, Policy: Static, MTL: 1, Domains: 4}, ServeConfig{})
	const jobs = 400
	for i := 0; i < jobs; i++ {
		if err := srv.Submit(countPair(&mem, &comp)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != jobs {
		t.Fatalf("Completed = %d, want %d", st.Completed, jobs)
	}
	if st.MaxConcurrentM > 4 {
		t.Fatalf("MaxConcurrentM = %d exceeds MTL 1 x 4 domains", st.MaxConcurrentM)
	}
	// Job seq is homed at seq % Domains, so every domain's gate admitted.
	for d := range rt.gates {
		if p := rt.gates[d].peak.Load(); p != 1 {
			t.Errorf("gate %d peak = %d, want 1", d, p)
		}
	}
}

// TestServeTaskErrorWording pins what the shared stage runner calls a
// record under each discipline: a session's failures say "job <seq>"
// where a Run's say "pair <index>" (runtime_parent.json pins those). A
// session only counts its failures, so the text is read off the runner.
func TestServeTaskErrorWording(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 1, Policy: Static, MTL: 1}, ServeConfig{})
	j := &pairRec{seq: 7, stage: stageComp}
	j.fnE[stageComp] = func() error { return errors.New("boom") }
	if err := srv.invoke(j); err == nil || err.Error() != "host: job 7 compute task failed: boom" {
		t.Errorf("invoke = %v", err)
	}
	j.stage = stageScat
	j.fn[stageScat] = func() { panic("kaboom") }
	if err := srv.invoke(j); err == nil || err.Error() != "host: job 7 scatter task panicked: kaboom" {
		t.Errorf("invoke = %v", err)
	}
	if _, err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServeBatchedAdmission checks the admission accounting over one
// deep backlog: every submitted job is admitted exactly once, by the
// worker that takes it, so AdmitBatches — kept for bench/ — equals
// AdmittedJobs, and both equal Submitted for pairs without a scatter.
func TestServeBatchedAdmission(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	_, srv := newServer(t, Config{Workers: 4, Policy: Static, MTL: 4}, ServeConfig{Queue: 1024})
	// Wedge every admission slot behind one blocker so a deep backlog
	// builds, then release.
	if err := srv.Submit(Pair{
		Memory:  func() { once.Do(started.Done); <-release },
		Compute: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	started.Wait()
	for i := 0; i < 800; i++ {
		if err := srv.Submit(Pair{Memory: func() {}, Compute: func() {}}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmitBatches != st.AdmittedJobs || st.AdmittedJobs != st.Submitted {
		t.Fatalf("AdmitBatches %d, AdmittedJobs %d, Submitted %d: want all equal",
			st.AdmitBatches, st.AdmittedJobs, st.Submitted)
	}
}

// TestServeFullGateWaitsForItsSlotHolder pins admission on take: at
// Workers 2, MTL 1, a Submit into a full gate starts nothing — no
// wake, no spawn — and the job waits in the pending ring. Once the slot
// holder's task returns, the job still completes: the worker that
// released the slot takes again, and nothing else has to move the job.
func TestServeFullGateWaitsForItsSlotHolder(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 2, Policy: Static, MTL: 1}, ServeConfig{Queue: 4})
	started, release := make(chan struct{}), make(chan struct{})
	if err := srv.Submit(Pair{
		Memory:  func() { close(started); <-release },
		Compute: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := srv.Submit(Pair{Memory: func() {}, Compute: func() {}}); err != nil {
		t.Fatal(err)
	}
	if n := srv.spawned.Load(); n != 1 {
		t.Errorf("%d workers after a Submit into a full gate, want the slot holder alone", n)
	}
	if n := srv.doms[0].pend.length(); n != 1 {
		t.Errorf("pending ring holds %d jobs behind the full gate, want 1", n)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := srv.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v (completed %d of 2)", err, st.Completed)
	}
	if st.Completed != 2 || st.AdmittedJobs != 2 {
		t.Errorf("Completed %d, AdmittedJobs %d, want 2 and 2", st.Completed, st.AdmittedJobs)
	}
}

// TestServeAfterCancelledRunWithWedgedGather pins that a runtime stays
// usable after a cancelled Run: at Workers 2, MTL 1, a RunContext is
// cancelled while its only gather is wedged in user code holding the
// gate's one slot, then a session opens and a job is submitted behind
// that full gate. The session starts its first worker anyway, the test
// lets it block where every phase parks, and only then releases the
// wedged task, whose release must wake it for the job to complete.
func TestServeAfterCancelledRunWithWedgedGather(t *testing.T) {
	for _, domains := range []int{1, 2} {
		t.Run(fmt.Sprintf("domains=%d", domains), func(t *testing.T) {
			rt, err := New(Config{Workers: 2, Policy: Static, MTL: 1, Domains: domains})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started, release := make(chan struct{}), make(chan struct{})
			go func() {
				<-started
				cancel()
			}()
			_, err = rt.RunContext(ctx, []Pair{{
				Memory:  func() { close(started); <-release },
				Compute: func() {},
			}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext: %v, want context.Canceled", err)
			}
			srv, err := rt.Serve(ServeConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Submit(Pair{Memory: func() {}, Compute: func() {}}); err != nil {
				t.Fatal(err)
			}
			w := srv.workers[0].Load()
			if w == nil {
				t.Fatal("a session's first Submit behind a full gate started no worker")
			}
			for w.parks.Load() == 0 {
				runtime.Gosched()
			}
			close(release)
			dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer dcancel()
			st, err := srv.Drain(dctx)
			if err != nil {
				t.Fatalf("Drain: %v (completed %d of 1)", err, st.Completed)
			}
			if st.Completed != 1 {
				t.Errorf("Completed %d, want 1", st.Completed)
			}
		})
	}
}

// TestServeReportsWakeLatency pins ServeStats.WakeLatency: a session
// whose workers blocked at least twice has woken one inside the session,
// and Drain reads λ only after every worker exited, so λ is positive.
// Jobs arrive one at a time with idle gaps between them, so the worker
// blocks in each gap (ServeStats does not publish parks; the test sums
// the workers' shards).
func TestServeReportsWakeLatency(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 2, Policy: Static, MTL: 1}, ServeConfig{})
	for i := 0; i < 6; i++ {
		done := make(chan struct{})
		if err := srv.Submit(Pair{Memory: func() {}, Compute: func() { close(done) }}); err != nil {
			t.Fatal(err)
		}
		<-done
		time.Sleep(2 * time.Millisecond)
	}
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var parks int64
	for i := range srv.workers {
		if w := srv.workers[i].Load(); w != nil {
			parks += w.parks.Load()
		}
	}
	if parks >= 2 && st.WakeLatency <= 0 {
		t.Errorf("WakeLatency = %v after a session with %d blocking parks", st.WakeLatency, parks)
	}
}

// TestServeDrainContext checks the deadline path: a Drain whose ctx
// expires returns counter stats plus the ctx error, and a second Drain
// can finish the job.
func TestServeDrainContext(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	_, srv := newServer(t, Config{Workers: 1, Policy: Static, MTL: 1}, ServeConfig{})
	if err := srv.Submit(Pair{
		Memory:  func() { once.Do(started.Done); <-release },
		Compute: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	started.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	st, err := srv.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	if st.Submitted != 1 || st.Completed != 0 {
		t.Fatalf("partial stats %+v", st)
	}
	close(release)
	st, err = srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 {
		t.Fatalf("second Drain: Completed = %d, want 1", st.Completed)
	}
}

// TestServeEmptyDrain drains a server that never saw a job.
func TestServeEmptyDrain(t *testing.T) {
	_, srv := newServer(t, Config{Workers: 4, Policy: Static, MTL: 2}, ServeConfig{})
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 0 || st.Completed != 0 {
		t.Fatalf("empty drain stats %+v", st)
	}
}

// TestServeConfigValidation pins ServeConfig errors.
func TestServeConfigValidation(t *testing.T) {
	rt, err := New(Config{Workers: 2, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]ServeConfig{
		"neg-queue": {Queue: -1},
		"bad-shed":  {Shed: Shed(99)},
	} {
		if _, err := rt.Serve(sc); err == nil {
			t.Errorf("%s: Serve accepted invalid config", name)
		}
	}
}
