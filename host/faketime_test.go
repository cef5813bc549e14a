//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package host

import (
	"context"
	"testing"
	"testing/synctest"
	"time"

	"memthrottle/internal/stats"
)

// The fake-time tests run the runtime in a synctest bubble (`make
// fake-time`: GOEXPERIMENT=synctest go test -run FakeTime ./host).
// There the clock moves only when every goroutine of the bubble is
// blocked, so a sleeping task body takes exactly its sleep and every
// step between two sleeps takes no time at all: a span the runtime
// reports either equals the bodies' sleeps to the nanosecond or holds a
// clock read in the wrong place. The wake latency λ reads 0 in a bubble
// (a token is sent and received at one instant), so idle workers never
// spin and the wake-rule tests stay on real time (wake_test.go).

const (
	fakeTm = 3 * time.Millisecond // every memory body's sleep
	fakeTc = 2 * time.Millisecond // every compute body's sleep
)

// fakePair is a pair whose bodies sleep fakeTm and fakeTc.
func fakePair() Pair {
	return Pair{
		Memory:  func() { time.Sleep(fakeTm) },
		Compute: func() { time.Sleep(fakeTc) },
	}
}

// TestFakeTimeRunStageTimes: Run's mean task times are the bodies'
// sleeps exactly. The compute starts at the reading that ended its
// gather, so an exact MeanTc shows the hand-off between the two adds
// no time of its own.
func TestFakeTimeRunStageTimes(t *testing.T) {
	synctest.Run(func() {
		rt, err := New(Config{Workers: 4, Policy: Static, MTL: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		pairs := make([]Pair, 16)
		for i := range pairs {
			pairs[i] = fakePair()
		}
		st, err := rt.Run(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if st.CompletedPairs != len(pairs) {
			t.Fatalf("CompletedPairs = %d, want %d", st.CompletedPairs, len(pairs))
		}
		if st.MeanTm != fakeTm || st.MeanTc != fakeTc {
			t.Errorf("MeanTm = %v, MeanTc = %v, want %v and %v exactly", st.MeanTm, st.MeanTc, fakeTm, fakeTc)
		}
	})
}

// TestFakeTimeServeLatencies: with arrivals spaced wider than a job's
// service time, no job waits, so every job's queue latency is 0 and its
// service latency is its two bodies' sleeps. The histograms are
// compared whole against ones holding exactly those samples, which
// makes every percentile equal.
func TestFakeTimeServeLatencies(t *testing.T) {
	synctest.Run(func() {
		rt, err := New(Config{Workers: 4, Policy: Static, MTL: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		srv, err := rt.Serve(ServeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		const jobs = 16
		for i := 0; i < jobs; i++ {
			if err := srv.Submit(fakePair()); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * (fakeTm + fakeTc))
		}
		st, err := srv.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != jobs {
			t.Fatalf("Completed = %d, want %d", st.Completed, jobs)
		}
		var queue, service stats.LatencyHist
		for i := 0; i < jobs; i++ {
			queue.Record(0)
			service.Record(fakeTm + fakeTc)
		}
		if st.QueueLatency != queue {
			t.Errorf("QueueLatency p50 %v, max %v: want every job at 0", st.QueueLatency.P50(), st.QueueLatency.Max())
		}
		if st.ServiceLatency != service {
			t.Errorf("ServiceLatency p50 %v, max %v: want every job at %v", st.ServiceLatency.P50(), st.ServiceLatency.Max(), fakeTm+fakeTc)
		}
	})
}
