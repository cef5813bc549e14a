package simsched

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// Arrivals is the arrival-process contract the open-loop driver consumes,
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

// ServeSpec describes a single-class open-loop serving run with one job
// shape: the substrate of the S1 experiment. See MixRun for the
// mechanism.
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

// ServeResult summarises one single-class open-loop run: MixResult
// with its one class flattened in.
type ServeResult struct {
	Policy string

	Arrived   int
	Completed int
	Dropped   int

	// Makespan ends at the last completion; Goodput is completed jobs
	// per second of makespan.
	Makespan sim.Time
	Goodput  float64

	// Queue is the per-job admission-wait latency (arrival to MTL-gate
	// admission); Service the admission-to-completion latency; Sojourn
	// the end-to-end arrival-to-completion latency the serving
	// experiments report percentiles of.
	Queue   stats.LatencyHist
	Service stats.LatencyHist
	Sojourn stats.LatencyHist

	PeakQueue     int // peak pending-queue depth
	PeakActiveMem int // peak concurrent memory tasks, all domains
	FinalMTL      int
	MTLDecisions  []int
}

// oneShape is the shape generator of a ServeSpec: every job alike.
type oneShape struct{ gather, compute float64 }

func (s oneShape) NextShape() (float64, float64) { return s.gather, s.compute }

// mix is the spec as the open-loop driver takes it: one class-0 stream.
func (s ServeSpec) mix() MixSpec {
	return MixSpec{
		Streams: []Stream{{
			Arrivals: s.Arrivals,
			Shapes:   oneShape{s.Gather, float64(s.Compute)},
			Jobs:     s.Jobs,
		}},
		Queue: s.Queue,
	}
}

// serveResult flattens the result of a one-class run.
func serveResult(res MixResult) ServeResult {
	c := &res.ByClass[0]
	return ServeResult{
		Policy:  res.Policy,
		Arrived: c.Arrived, Completed: c.Completed, Dropped: c.Dropped,
		Makespan: res.Makespan, Goodput: res.Goodput,
		Queue: c.Queue, Service: c.Service, Sojourn: c.Sojourn,
		PeakQueue: res.PeakQueue, PeakActiveMem: res.PeakActiveMem,
		FinalMTL: res.FinalMTL, MTLDecisions: res.MTLDecisions,
	}
}

// ServeRun is MixRun for one class-0 stream of identical jobs. Panics
// on invalid configuration or spec.
func ServeRun(cfg Config, spec ServeSpec, th core.Throttler) ServeResult {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return serveResult(MixRun(cfg, spec.mix(), th))
}
