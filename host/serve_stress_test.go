package host

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// servTrackedPair returns a pair whose memory task maintains a live
// count and high-water mark, the serving analogue of trackedPairs.
func servTrackedPair(live, peak *int64, work int) Pair {
	return Pair{
		Memory: func() {
			cur := atomic.AddInt64(live, 1)
			for {
				old := atomic.LoadInt64(peak)
				if cur <= old || atomic.CompareAndSwapInt64(peak, old, cur) {
					break
				}
			}
			busy(work)
			atomic.AddInt64(live, -1)
		},
		Compute: func() { busy(work / 2) },
	}
}

// TestStressServeSubmitDrainMTL is the serving-path torture test:
// 160 workers across 4 domains, concurrent submitters hammering the
// ingress rings, a limit-twiddler raising and degrading the MTL
// mid-flight (re-pumping on every move, exactly as the adaptive
// controller does), and a Drain racing all of it. Checks the hard
// invariants: no job lost or double-counted, observed memory
// concurrency never above the largest limit ever set, histograms hold
// exactly the completed jobs. Run with -race to check the ring, gate
// and parking-lot ordering claims.
func TestStressServeSubmitDrainMTL(t *testing.T) {
	const (
		workers    = 160
		domains    = 4
		mtl        = 2
		maxTwiddle = 6
		submitters = 8
	)
	perSub := 600
	if testing.Short() {
		perSub = 150
	}
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: mtl, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := rt.Serve(ServeConfig{Queue: 256, Shed: ShedDrop, AdmitBatch: 32})
	if err != nil {
		t.Fatal(err)
	}

	live, peak := new(int64), new(int64)
	var accepted, shutOut atomic.Int64
	var subWG sync.WaitGroup
	// Each submission nudges the twiddler below, so the limit moves as
	// fast as the load arrives whatever the machine's speed — no clock
	// paces it.
	nudge := make(chan struct{}, 1)
	for g := 0; g < submitters; g++ {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for i := 0; i < perSub; i++ {
				err := srv.Submit(servTrackedPair(live, peak, 500))
				select {
				case nudge <- struct{}{}:
				default:
				}
				switch {
				case err == nil:
					accepted.Add(1) // submitted or silently dropped (ShedDrop)
				case errors.Is(err, ErrDraining):
					shutOut.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}()
	}

	// The twiddler plays adaptive controller: move every gate's limit
	// and re-pump, racing the workers' claims and releases. Static
	// policy keeps feedController out of the way, so this goroutine is
	// the only limit writer.
	stop := make(chan struct{})
	var twiddleWG sync.WaitGroup
	twiddleWG.Add(1)
	go func() {
		defer twiddleWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-nudge:
			}
			limit := int64(1 + i%maxTwiddle)
			for d := range rt.gates {
				rt.gates[d].limit.Store(limit)
			}
			srv.limitRose()
		}
	}()

	subWG.Wait()
	st, err := srv.Drain(context.Background())
	close(stop)
	twiddleWG.Wait()
	if err != nil {
		t.Fatal(err)
	}

	total := int64(submitters * perSub)
	if got := accepted.Load() + shutOut.Load(); got != total {
		t.Fatalf("client saw %d outcomes for %d submissions", got, total)
	}
	if st.Submitted+st.Dropped != accepted.Load() {
		t.Fatalf("Submitted(%d) + Dropped(%d) != accepted(%d)",
			st.Submitted, st.Dropped, accepted.Load())
	}
	if st.Completed+st.Failed != st.Submitted {
		t.Fatalf("Completed(%d) + Failed(%d) != Submitted(%d)",
			st.Completed, st.Failed, st.Submitted)
	}
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed, tasks never error", st.Failed)
	}
	if got, limit := atomic.LoadInt64(peak), int64(maxTwiddle*domains); got > limit {
		t.Fatalf("observed %d concurrent memory tasks, max limit x domains is %d", got, limit)
	}
	if st.QueueLatency.Count() != uint64(st.Submitted) || st.ServiceLatency.Count() != uint64(st.Completed) {
		t.Fatalf("histogram counts %d/%d, want %d/%d",
			st.QueueLatency.Count(), st.ServiceLatency.Count(), st.Submitted, st.Completed)
	}
	if gone := rt.gates[0].active.Load(); gone != 0 {
		t.Fatalf("gate 0 still holds %d slots after drain", gone)
	}
}

// TestStressServeAdaptiveDrainRace runs the real adaptive controller
// at 128 workers with submitters racing a mid-stream Drain, checking
// the serving path and the controller's MTL moves compose without
// losing jobs or wedging the drain.
func TestStressServeAdaptiveDrainRace(t *testing.T) {
	const (
		workers    = 128
		submitters = 6
	)
	perSub := 400
	if testing.Short() {
		perSub = 100
	}
	rt, err := New(Config{Workers: workers, Policy: Dynamic, W: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := rt.Serve(ServeConfig{Queue: 512, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}

	live, peak := new(int64), new(int64)
	var accepted, shutOut atomic.Int64
	var subWG sync.WaitGroup
	started := make(chan struct{})
	var once sync.Once
	for g := 0; g < submitters; g++ {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for i := 0; i < perSub; i++ {
				if i == perSub/4 {
					once.Do(func() { close(started) })
				}
				err := srv.Submit(servTrackedPair(live, peak, 500))
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrDraining):
					shutOut.Add(1)
				default:
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}()
	}

	// Drain mid-stream: late submitters must cleanly bounce with
	// ErrDraining (including those parked in ShedBlock waits), accepted
	// jobs must all retire.
	<-started
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	subWG.Wait()

	if got := accepted.Load() + shutOut.Load(); got != int64(submitters*perSub) {
		t.Fatalf("client saw %d outcomes for %d submissions", got, submitters*perSub)
	}
	if st.Completed+st.Failed != st.Submitted {
		t.Fatalf("Completed(%d) + Failed(%d) != Submitted(%d)",
			st.Completed, st.Failed, st.Submitted)
	}
	if st.FinalMTL < 1 || st.FinalMTL > workers {
		t.Fatalf("FinalMTL = %d outside [1, %d]", st.FinalMTL, workers)
	}
	if got := atomic.LoadInt64(peak); got > int64(workers) {
		t.Fatalf("observed %d concurrent memory tasks with %d workers", got, workers)
	}
	// ShedBlock never sheds: a nil Submit means the job was enqueued,
	// so the client-side accepted count must equal Submitted exactly.
	if st.Submitted != accepted.Load() {
		t.Fatalf("Submitted(%d) != client accepted(%d)", st.Submitted, accepted.Load())
	}
}
