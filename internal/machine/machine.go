// Package machine models the multicore CPU: cores with one or more
// hardware threads (SMT). Compute work on a core is processor-shared
// between the hardware threads that are actively computing, so two
// co-scheduled compute tasks each stretch to twice their solo time —
// exactly the "Tc is no longer a constant" effect the paper observes
// when SMT is enabled (§VI-E). Memory tasks park on a hardware thread
// without consuming issue width; they wait on DRAM, not the pipeline.
package machine

import (
	"fmt"

	"memthrottle/internal/sim"
)

// Config describes the processor.
type Config struct {
	Cores   int // physical cores (paper: 4 on the i7-860)
	SMTWays int // hardware threads per core (1 = SMT off, 2 = i7 SMT)
	// MemDomains is the number of independent memory domains the
	// machine's DRAM splits into (the paper's 2-DIMM platform has 2).
	// 0 or 1 both mean one unified memory system.
	MemDomains int
}

// I7860 returns the paper's evaluation machine: 4 cores, SMT
// available but disabled by default (the paper enables it only in the
// Fig. 18 scaling study).
func I7860() Config { return Config{Cores: 4, SMTWays: 1} }

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("machine: Cores = %d, want >= 1", c.Cores)
	}
	if c.SMTWays < 1 {
		return fmt.Errorf("machine: SMTWays = %d, want >= 1", c.SMTWays)
	}
	if c.MemDomains < 0 {
		return fmt.Errorf("machine: MemDomains = %d, want >= 0", c.MemDomains)
	}
	return nil
}

// HardwareThreads reports the total number of schedulable contexts.
func (c Config) HardwareThreads() int { return c.Cores * c.SMTWays }

// Domains reports the effective memory-domain count (>= 1).
func (c Config) Domains() int {
	if c.MemDomains < 1 {
		return 1
	}
	return c.MemDomains
}

// WithSMT returns a copy with the given SMT width.
func (c Config) WithSMT(ways int) Config {
	c.SMTWays = ways
	return c
}

// WithMemDomains returns a copy sharded into n memory domains.
func (c Config) WithMemDomains(n int) Config {
	c.MemDomains = n
	return c
}

// Machine is a set of cores bound to a simulation engine.
type Machine struct {
	cfg   Config
	cores []*Core
}

// New builds a machine. Panics on invalid configuration.
func New(eng *sim.Engine, cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, newCore(eng, i))
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Cores returns all cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Reset returns every core to the state New builds, keeping scratch
// slices and recycled execution shells, so one machine can serve run
// after run. The engine must have been reset first: executions still in
// flight are dropped without their callbacks and pending completion
// events are forgotten, not cancelled.
func (m *Machine) Reset() {
	for _, c := range m.cores {
		for i, e := range c.active {
			e.active, e.idx = false, -1
			c.active[i] = nil
		}
		c.active = c.active[:0]
		c.lastSettle, c.next, c.seq, c.busyTime = 0, nil, 0, 0
		c.due = c.due[:0]
	}
}

// Exec is one compute execution in flight on a core.
type Exec struct {
	seq       uint64    // start order; fixes callback ordering
	remaining float64   // solo-seconds of work left
	fn        func(any) // completion callback, called as fn(arg); or
	arg       any       // nil fn and a func() in arg: the closure form
	// The three below share one word, which keeps an Exec in the
	// 48-byte size class it had when its callback was a bare func().
	idx    int32 // position in core.active; -1 once removed
	active bool
	pooled bool // started without a handle: the shell returns to core.free
}

// Active reports whether the execution is still running.
func (e *Exec) Active() bool { return e.active }

// Core is one physical core: a processor-sharing server for compute
// work. n concurrently computing hardware threads each progress at
// rate 1/n. Like contend.Pool, active executions live in an
// index-tracked slice with scratch due/firing sets and a pre-bound
// fire callback, so the settle/reschedule/fire cycle stays free of
// steady-state allocations, and executions started through
// StartComputeFunc — which hands out no *Exec — reuse completed shells.
type Core struct {
	eng        *sim.Engine
	id         int
	active     []*Exec // in-flight executions, unordered; Exec.idx tracks slots
	lastSettle sim.Time
	next       *sim.Event
	due        []*Exec   // execs the pending event will complete
	firing     []*Exec   // scratch swapped with due while callbacks run
	fireFn     func(any) // pre-bound fire
	free       []*Exec   // completed StartComputeFunc shells awaiting reuse
	seq        uint64

	busyTime sim.Time // integrated time with >= 1 active exec
}

func newCore(eng *sim.Engine, id int) *Core {
	c := &Core{eng: eng, id: id}
	c.fireFn = c.fire
	return c
}

// remove unlinks an execution by swapping the last slot into its place.
func (c *Core) remove(e *Exec) {
	last := len(c.active) - 1
	moved := c.active[last]
	c.active[e.idx] = moved
	moved.idx = e.idx
	c.active[last] = nil
	c.active = c.active[:last]
	e.idx = -1
}

// ID reports the core index.
func (c *Core) ID() int { return c.id }

// ActiveCompute reports the number of compute executions in flight.
func (c *Core) ActiveCompute() int { return len(c.active) }

// BusyTime reports the total time this core had at least one compute
// execution active (used for idle accounting).
func (c *Core) BusyTime() sim.Time {
	c.settle()
	return c.busyTime
}

func (c *Core) settle() {
	now := c.eng.Now()
	dt := float64(now - c.lastSettle)
	c.lastSettle = now
	if dt == 0 {
		return
	}
	n := len(c.active)
	if n == 0 {
		return
	}
	c.busyTime += sim.Time(dt)
	progress := dt / float64(n)
	for _, e := range c.active {
		e.remaining -= progress
		if e.remaining < 0 {
			e.remaining = 0
		}
	}
}

func (c *Core) reschedule() {
	if c.next != nil {
		c.next.Cancel()
		c.next = nil
	}
	c.due = c.due[:0]
	n := len(c.active)
	if n == 0 {
		return
	}
	minRem := -1.0
	for _, e := range c.active {
		if minRem < 0 || e.remaining < minRem {
			minRem = e.remaining
		}
	}
	// Remember which execs this event completes; re-deriving them from
	// float comparisons at fire time can stall virtual time.
	const relTol = 1e-12
	for _, e := range c.active {
		if e.remaining <= minRem*(1+relTol) {
			c.due = append(c.due, e)
		}
	}
	sortExecsBySeq(c.due)
	c.next = c.eng.AfterFunc(sim.Time(minRem*float64(n)), c.fireFn, nil)
}

// sortExecsBySeq is an insertion sort over the (tiny) due set; unlike
// sort.Slice it needs no closure and no reflection.
func sortExecsBySeq(es []*Exec) {
	for i := 1; i < len(es); i++ {
		x := es[i]
		j := i - 1
		for j >= 0 && es[j].seq > x.seq {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = x
	}
}

func (c *Core) fire(any) {
	c.settle()
	c.firing, c.due = c.due, c.firing[:0]
	for _, e := range c.firing {
		c.remove(e)
		e.active = false
		e.remaining = 0
	}
	c.reschedule()
	for _, e := range c.firing {
		fn, arg := e.fn, e.arg
		if e.pooled {
			// No handle exists, so the shell is free once the callback
			// has been read out; the callback may itself reuse it.
			e.fn, e.arg = nil, nil
			c.free = append(c.free, e)
		}
		if fn != nil {
			fn(arg)
		} else if done, ok := arg.(func()); ok {
			done()
		}
	}
}

// StartCompute begins a compute execution of the given solo duration
// on this core; done (may be nil) fires at completion. Panics on
// non-positive duration. The returned handle stays valid after
// completion.
func (c *Core) StartCompute(solo sim.Time, done func()) *Exec {
	if done == nil {
		return c.start(solo, nil, nil, false)
	}
	// The closure form of a callback: no fn, the func() itself as arg
	// (pointer-shaped, so the any allocates nothing); fire calls it
	// directly.
	return c.start(solo, nil, done, false)
}

// StartComputeFunc is StartCompute for hot loops: at completion it
// calls fn(arg), and it returns no handle, which is what lets the core
// recycle the execution shell. A nil fn means no callback and wants a
// nil arg.
func (c *Core) StartComputeFunc(solo sim.Time, fn func(any), arg any) {
	c.start(solo, fn, arg, true)
}

// start is the one start path behind StartCompute and StartComputeFunc.
func (c *Core) start(solo sim.Time, fn func(any), arg any, pooled bool) *Exec {
	if solo <= 0 {
		panic(fmt.Sprintf("machine: StartCompute(%v)", solo))
	}
	c.settle()
	var e *Exec
	if n := len(c.free); pooled && n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		e = &Exec{}
	}
	e.seq, e.remaining = c.seq, float64(solo)
	e.fn, e.arg = fn, arg
	e.active, e.pooled, e.idx = true, pooled, int32(len(c.active))
	c.seq++
	c.active = append(c.active, e)
	c.reschedule()
	return e
}
