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
		c.srv.Reset(0, 1)
	}
}

// Core is one physical core: a processor-sharing server for compute
// work. n concurrently computing hardware threads each progress at
// rate 1/n, which is a sim.Shared in solo-seconds whose time per unit
// is 0 + 1*n: the unit-weight case of the law contend.Pool runs in
// bytes, on the same mechanism.
type Core struct {
	id  int
	srv *sim.Shared
}

func newCore(eng *sim.Engine, id int) *Core {
	return &Core{id: id, srv: sim.NewShared(eng, 0, 1)}
}

// ID reports the core index.
func (c *Core) ID() int { return c.id }

// ActiveCompute reports the number of compute executions in flight.
func (c *Core) ActiveCompute() int { return c.srv.Count() }

// BusyTime reports the total time this core had at least one compute
// execution active (used for idle accounting).
func (c *Core) BusyTime() sim.Time { return c.srv.BusyTime() }

// StartComputeFunc begins a compute execution of the given solo
// duration on this core; at completion it calls fn(arg). A nil fn means
// no callback and wants a nil arg. Panics on non-positive duration.
func (c *Core) StartComputeFunc(solo sim.Time, fn func(any), arg any) {
	checkSolo(solo)
	c.srv.StartFunc(float64(solo), 1, fn, arg)
}

// StartCompute is StartComputeFunc for a closure: done (may be nil)
// fires at completion.
func (c *Core) StartCompute(solo sim.Time, done func()) {
	checkSolo(solo)
	c.srv.Start(float64(solo), 1, done)
}

func checkSolo(solo sim.Time) {
	if solo <= 0 {
		panic(fmt.Sprintf("machine: StartCompute(%v)", solo))
	}
}
