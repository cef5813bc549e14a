package sim

// job is one unit of work in flight on a Shared server. Nobody outside
// the server holds one, so its shell returns to the free list the
// moment it completes or a Reset drops it.
type job struct {
	seq       uint64 // start order; fixes callback ordering
	weight    float64
	remaining float64   // work left, in the server's unit
	fn        func(any) // completion callback, called as fn(arg)
	arg       any
	idx       int // position in Shared.jobs
}

// Shared is a processor-sharing server, the one fluid mechanism under
// both of the repository's contention models. Every active job
// progresses at the same rate, 1/(Base + Slope*W) units of work per
// second, W being the summed weight of the active jobs; when membership
// changes mid-job, progress integrates piecewise. contend.Pool is a
// Shared in bytes with (Base, Slope) = (Tml, Tql) per byte — the
// paper's Tm_k = Tml + k*Tql (§IV-A) — and machine.Core is one in
// solo-seconds with (0, 1) and unit weights: n co-scheduled hardware
// threads each run at 1/n (§VI-E).
//
// Callers own the argument checks: work and weights must be positive,
// and Base + Slope*W positive whenever a job is active.
//
// Active jobs live in an index-tracked slice (not a map): iteration is
// deterministic and allocation-free, and removal is an O(1) swap via
// job.idx. The due and firing scratch slices plus the pre-bound fire
// callback keep the settle/reschedule/fire cycle free of steady-state
// allocations, and every start reuses a completed job shell, so a
// steady stream of work allocates nothing at all.
type Shared struct {
	eng         *Engine
	base, slope float64
	jobs        []*job // active jobs, unordered; job.idx tracks slots
	weight      float64
	lastSettle  Time
	next        *Event
	due         []*job    // jobs the pending event will complete
	firing      []*job    // scratch swapped with due while callbacks run
	fireFn      func(any) // pre-bound fire, so reschedule never allocates
	free        []*job    // completed or dropped shells awaiting reuse

	started   uint64
	completed uint64
	busy      Time // integrated time with >= 1 active job
}

// NewShared creates a server bound to the engine.
func NewShared(eng *Engine, base, slope float64) *Shared {
	s := &Shared{eng: eng, base: base, slope: slope}
	s.fireFn = s.fire
	return s
}

// Reset returns the server to the state NewShared(eng, base, slope)
// builds, keeping its scratch slices and recycled job shells, so one
// server can serve run after run. The engine must have been reset
// first: jobs still in flight are dropped without their callbacks and
// the pending completion event is forgotten, not cancelled.
func (s *Shared) Reset(base, slope float64) {
	s.base, s.slope = base, slope
	for i, j := range s.jobs {
		j.fn, j.arg = nil, nil
		s.free = append(s.free, j)
		s.jobs[i] = nil
	}
	s.jobs = s.jobs[:0]
	s.weight, s.lastSettle, s.next = 0, 0, nil
	s.due = s.due[:0]
	s.started, s.completed, s.busy = 0, 0, 0
}

// Count reports the number of active jobs.
func (s *Shared) Count() int { return len(s.jobs) }

// Weight reports the summed weight of the active jobs.
func (s *Shared) Weight() float64 { return s.weight }

// Started and Completed report lifetime job counts.
func (s *Shared) Started() uint64   { return s.started }
func (s *Shared) Completed() uint64 { return s.completed }

// BusyTime reports the total time the server had at least one job
// active.
func (s *Shared) BusyTime() Time {
	s.settle()
	return s.busy
}

// perUnit returns the current time per unit of work.
func (s *Shared) perUnit() float64 { return s.base + s.weight*s.slope }

// detach takes a job out of the active set: an O(1) swap of the last slot
// into its place, and the job's weight off the total.
func (s *Shared) detach(j *job) {
	last := len(s.jobs) - 1
	moved := s.jobs[last]
	s.jobs[j.idx] = moved
	moved.idx = j.idx
	s.jobs[last] = nil
	s.jobs = s.jobs[:last]
	s.weight -= j.weight
}

// settle integrates progress from lastSettle to now at the current
// total weight.
func (s *Shared) settle() {
	now := s.eng.Now()
	dt := float64(now - s.lastSettle)
	s.lastSettle = now
	if dt == 0 || len(s.jobs) == 0 {
		return
	}
	s.busy += Time(dt)
	progressed := dt / s.perUnit()
	for _, j := range s.jobs {
		j.remaining -= progressed
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
}

// reschedule cancels any pending completion event and schedules the
// next one at the earliest job completion under the current weight.
// The due jobs are remembered and force-completed when the event
// fires: re-deriving them from float comparisons at fire time can
// leave a hair of remaining work and stall virtual time.
func (s *Shared) reschedule() {
	if s.next != nil {
		s.next.Cancel()
		s.next = nil
	}
	s.due = s.due[:0]
	if len(s.jobs) == 0 {
		return
	}
	minRem := -1.0
	for _, j := range s.jobs {
		if minRem < 0 || j.remaining < minRem {
			minRem = j.remaining
		}
	}
	const relTol = 1e-12
	for _, j := range s.jobs {
		if j.remaining <= minRem*(1+relTol) {
			s.due = append(s.due, j)
		}
	}
	sortJobsBySeq(s.due)
	s.next = s.eng.AfterFunc(Time(minRem*s.perUnit()), s.fireFn, nil)
}

// sortJobsBySeq is an insertion sort: the due set is almost always one
// or two jobs, and unlike sort.Slice it needs no closure and no
// reflection. Sequence numbers are unique, so the order is total.
func sortJobsBySeq(js []*job) {
	for i := 1; i < len(js); i++ {
		x := js[i]
		k := i - 1
		for k >= 0 && js[k].seq > x.seq {
			js[k+1] = js[k]
			k--
		}
		js[k+1] = x
	}
}

// fire completes the jobs the pending event was scheduled for.
func (s *Shared) fire(any) {
	s.settle()
	// Swap the due set into the firing scratch: reschedule below will
	// rebuild due, and the callbacks must see the set frozen at
	// schedule time.
	s.firing, s.due = s.due, s.firing[:0]
	for _, j := range s.firing {
		s.detach(j)
		s.completed++
	}
	if s.weight < 1e-12 && len(s.jobs) == 0 {
		s.weight = 0 // absorb float drift at idle
	}
	s.reschedule()
	// Callbacks run after internal state is consistent: they may start
	// new jobs. A shell is free the moment its callback has been read
	// out — the callback itself may already reuse it for the work it
	// starts.
	for _, j := range s.firing {
		fn, arg := j.fn, j.arg
		j.fn, j.arg = nil, nil
		s.free = append(s.free, j)
		if fn != nil {
			fn(arg)
		}
	}
}

// Start is StartFunc for a closure: done (may be nil) fires at
// completion.
func (s *Shared) Start(amount, weight float64, done func()) {
	if done == nil {
		s.StartFunc(amount, weight, nil, nil)
	} else {
		// A func value is pointer-shaped: boxing it allocates nothing.
		s.StartFunc(amount, weight, callDone, done)
	}
}

func callDone(done any) { done.(func())() }

// StartFunc adds a job of the given amount of work and weight; at
// completion it calls fn(arg) — fn typically a method value created
// once, arg the per-job state. A nil fn means no callback and wants a
// nil arg.
func (s *Shared) StartFunc(amount, weight float64, fn func(any), arg any) {
	s.settle()
	var j *job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		j = &job{}
	}
	j.seq, j.weight, j.remaining = s.started, weight, amount
	j.fn, j.arg = fn, arg
	j.idx = len(s.jobs)
	s.jobs = append(s.jobs, j)
	s.weight += weight
	s.started++
	s.reschedule()
}
