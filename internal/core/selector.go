package core

import "fmt"

// Measurement is the averaged result of monitoring W memory/compute
// task pairs at one MTL value.
type Measurement struct {
	Tm Time // mean memory-task time at the probed MTL
	Tc Time // mean compute-task time
}

// Selector runs the paper's MTL-selection algorithm (§IV-C, Fig. 11):
// a binary search for MTL_NoIdle (the minimum MTL at which all cores
// stay busy), a probe of MTL_Idle = MTL_NoIdle-1, and a model-based
// comparison of the two candidates. Callers alternate NextProbe and
// Record until NextProbe reports done, then read Decision.
type Selector struct {
	model  Model
	meas   map[int]Measurement
	lo     int
	hi     int
	linear bool

	decided bool
	dmtl    int
	probes  int
}

// NewSelector starts a fresh selection for the given model.
func NewSelector(model Model) *Selector {
	return &Selector{model: model, meas: make(map[int]Measurement), lo: 1, hi: model.N}
}

// NewLinearSelector starts a selection that probes every MTL from 1 to
// n and picks the model-predicted argmax — the "most naive solution"
// §IV-C argues against. Kept for the search-strategy ablation.
func NewLinearSelector(model Model) *Selector {
	s := NewSelector(model)
	s.linear = true
	return s
}

// Probes reports how many distinct MTL values were measured — the
// monitoring cost the binary search is designed to minimise.
func (s *Selector) Probes() int { return s.probes }

// Measured returns the recorded measurement at k, if any.
func (s *Selector) Measured(k int) (Measurement, bool) {
	m, ok := s.meas[k]
	return m, ok
}

// tc pools the compute-time estimate across all probes: Tc is
// invariant to MTL (§IV-A), so every window contributes.
func (s *Selector) tc() Time {
	var sum Time
	n := 0
	for _, m := range s.meas {
		sum += m.Tc
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / Time(n)
}

// NextProbe returns the MTL value the caller must measure next. When
// the search has converged it reports done=true and the caller should
// use Decision.
func (s *Selector) NextProbe() (k int, done bool) {
	if s.decided {
		return 0, true
	}
	// Tm_n anchors every speedup formula; measure it first (it is
	// also the unthrottled schedule, so this probe is free at start).
	if _, ok := s.meas[s.model.N]; !ok {
		return s.model.N, false
	}
	if s.linear {
		for k := 1; k < s.model.N; k++ {
			if _, ok := s.meas[k]; !ok {
				return k, false
			}
		}
		s.decideLinear()
		return 0, true
	}
	// Binary search for MTL_NoIdle.
	if s.lo < s.hi {
		return (s.lo + s.hi) / 2, false
	}
	// Converged: lo == hi == MTL_NoIdle. Probe MTL_Idle if it exists
	// and was not measured on the search path.
	if s.lo > 1 {
		if _, ok := s.meas[s.lo-1]; !ok {
			return s.lo - 1, false
		}
	}
	s.decide()
	return 0, true
}

// Record supplies the measurement for a probe requested by NextProbe.
func (s *Selector) Record(k int, m Measurement) {
	if s.decided {
		panic("core: Record after decision")
	}
	if k < 1 || k > s.model.N {
		panic(fmt.Sprintf("core: Record with k = %d outside [1, %d]", k, s.model.N))
	}
	if m.Tm <= 0 || m.Tc <= 0 {
		panic(fmt.Sprintf("core: Record with non-positive measurement %+v", m))
	}
	if _, dup := s.meas[k]; !dup {
		s.probes++
	}
	s.meas[k] = m
	if s.linear {
		return
	}
	// Advance the binary search when this probe was its midpoint.
	if s.lo < s.hi && k == (s.lo+s.hi)/2 {
		if s.model.CoresIdle(m.Tm, s.tc(), k) {
			s.lo = k + 1
		} else {
			s.hi = k
		}
	}
}

// decide compares the two candidates through the analytical model.
func (s *Selector) decide() {
	noIdle := s.lo
	tc := s.tc()
	tmN := s.meas[s.model.N].Tm
	best := noIdle
	bestSpeedup := s.model.Speedup(tmN, s.meas[noIdle].Tm, tc, noIdle)
	if noIdle > 1 {
		idle := noIdle - 1
		if sp := s.model.Speedup(tmN, s.meas[idle].Tm, tc, idle); sp > bestSpeedup {
			best, bestSpeedup = idle, sp
		}
	}
	s.dmtl = best
	s.decided = true
}

// decideLinear picks the model-predicted argmax over every MTL.
func (s *Selector) decideLinear() {
	tc := s.tc()
	tmN := s.meas[s.model.N].Tm
	best, bestSpeedup := 0, -1.0
	for k := 1; k <= s.model.N; k++ {
		if sp := s.model.Speedup(tmN, s.meas[k].Tm, tc, k); sp > bestSpeedup {
			best, bestSpeedup = k, sp
		}
	}
	s.dmtl = best
	s.decided = true
}

// Decision returns the selected MTL (D-MTL). ok is false while the
// search is still in progress.
func (s *Selector) Decision() (dmtl int, ok bool) {
	if !s.decided {
		return 0, false
	}
	return s.dmtl, true
}

// NoIdleBound returns the converged MTL_NoIdle (only meaningful once
// decided).
func (s *Selector) NoIdleBound() int { return s.lo }
