package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"memthrottle/internal/workload"
)

// poissonSchedule returns n due times (ns from the start of the run)
// of a Poisson arrival process at rate jobs/s. The seed is the only
// randomness: one seed gives one schedule.
func poissonSchedule(rate float64, n int, seed int64) []int64 {
	arr := workload.NewPoisson(rate, seed)
	due := make([]int64, n)
	var t float64
	for i := range due {
		t += arr.Next()
		due[i] = int64(t * 1e9)
	}
	return due
}

// waitUntil spins until due ns after base and returns the time it
// stopped, in ns after base. A due time already in the past returns at
// once: the generator never skips or reorders arrivals, it runs late
// and the lateness is charged to the job.
//
// It neither sleeps nor yields. The generator has a CPU of its own
// (serveRule), so spinning costs the workers nothing, and both other
// ways of waiting put the host into the measurement: a time.Sleep
// overshoots by hundreds of microseconds on a small VM, more than the
// median being measured, and a runtime.Gosched loop wakes an idle P on
// every pass, so three threads take turns on two CPUs and the kernel
// takes a worker off its CPU for a 3-4 ms slice a few times a second.
func waitUntil(base time.Time, due int64) int64 {
	for {
		if now := time.Since(base).Nanoseconds(); now >= due {
			return now
		}
	}
}

// keepAwake starts a goroutine that yields in a loop, so that no P of
// the process goes idle while an open loop runs, and returns the
// function that stops it and waits for it. With an idle P, handing a
// job to a parked worker means waking a sleeping thread, on a shared
// host a halted vCPU: 50 us at best, milliseconds when the host is
// busy, and that, not the runtime, was the latency this workload
// reported (at 4000 jobs/s: p50 200 us, window p99 0.5-4 ms; 80 us and 300 us with the
// Ps kept busy, the same from run to run). The generator yields once
// after each Submit, which hands its P to the worker it just woke;
// whichever P this loop is on picks the generator up again within a
// pass. It is the benchmark's idle=poll: what a wake-up costs the
// kernel and the hypervisor is not measured, every step of the
// runtime's own path (ring, pump, gate, lot, ready, body, finish) is.
func keepAwake() (stop func()) {
	var quit atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !quit.Load() {
			runtime.Gosched()
		}
	}()
	return func() {
		quit.Store(true)
		<-done
	}
}
