package simsched

import (
	"sync"

	"memthrottle/internal/cache"
	"memthrottle/internal/contend"
	"memthrottle/internal/machine"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// rig is the machine under test, shared by the closed-loop kernel
// (runner) and the open-loop driver (mixer). newRig builds what depends
// only on the machine's shape; reset sets the rest, so a
// rig one run has finished with serves the next run of either kind.
type rig struct {
	cfg     Config
	eng     *sim.Engine // cores, pools, scheduler bookkeeping, arrivals
	mach    *machine.Machine
	pools   []*contend.Pool // one fluid memory model per domain
	llc     *cache.LLC
	noise   *stats.Noise
	workers []worker
}

// worker is one hardware thread executing tasks.
type worker struct {
	id   int
	core *machine.Core
	idle bool
}

// memParams returns the fluid parameters of domain d: with a unified
// memory system Mem parameterises the single pool, otherwise each
// domain's DIMM has its own independently calibrated model.
func (c Config) memParams(d int) contend.Params {
	if c.Machine.Domains() > 1 {
		return c.DomainMem[d]
	}
	return c.Mem
}

// newRig builds the rig for cfg's machine, every pool on the one engine.
func newRig(cfg Config) rig {
	g := rig{cfg: cfg, eng: sim.NewWheel(), noise: stats.NewNoise(0, 0)}
	g.mach = machine.New(g.eng, cfg.Machine)
	g.pools = make([]*contend.Pool, cfg.Machine.Domains())
	for d := range g.pools {
		g.pools[d] = contend.NewPool(g.eng, cfg.memParams(d))
	}
	g.workers = make([]worker, cfg.Machine.HardwareThreads())
	for i := range g.workers {
		g.workers[i] = worker{id: i, core: g.mach.Core(i % cfg.Machine.Cores)}
	}
	return g
}

// reset puts the rig in the state a run starts from. It is the only
// way into a run, for a new rig and a recycled one alike, so the two
// cannot differ: whatever a run reads of the rig, reset has set. cfg
// must have the machine shape the rig was built for.
func (g *rig) reset(cfg Config) {
	g.cfg = cfg
	g.eng.Reset()
	g.mach.Reset()
	for d, p := range g.pools {
		p.Reset(cfg.memParams(d))
	}
	for i := range g.workers {
		g.workers[i].idle = true
	}
	g.llc = cache.NewLLC(cfg.LLCBytes)
	if cfg.ResidentOverheadBytes > 0 {
		g.llc.Reserve(cfg.ResidentOverheadBytes)
	}
	g.noise.Reset(cfg.NoiseSigma, cfg.Seed)
}

// startCompute runs the compute half of a pair on w's core. If live
// footprints overflow the LLC it also drives miss traffic into dom, the
// pair's home domain, where its gatherBytes footprint lives. The task
// is complete after parts calls of part(arg), none of them made before
// startCompute returns.
func (g *rig) startCompute(w *worker, dom int, gatherBytes float64, work sim.Time, part func(any), arg any) (parts int, missFrac float64) {
	missFrac = g.llc.MissFraction()
	parts = 1
	if missFrac > 0 {
		parts++
		g.pools[dom].StartFunc(missFrac*gatherBytes, missFrac, part, arg)
	}
	w.core.StartComputeFunc(work, part, arg)
	return parts, missFrac
}

// runners recycles finished runners — the rig, with the closed-loop
// kernel's ready queues and phase slab riding along — so the next run
// on the same machine shape resets one instead of rebuilding it. A
// sweep is tens of thousands of short runs over a handful of shapes,
// and fresh memory for each of them cost more in page faults, cache
// misses and collection than the construction itself. An open-loop run
// borrows a runner for its rig. Only a runner whose run completed goes
// back: a run that panics drops its own.
var runners sync.Pool

// acquire returns a runner whose rig has cfg's machine shape, from the
// pool when it holds one.
func acquire(cfg Config) *runner {
	if r, _ := runners.Get().(*runner); r != nil && r.cfg.Machine == cfg.Machine {
		return r
	}
	return newRunner(cfg)
}

// release hands a runner whose run completed to the next acquire.
func release(r *runner) { runners.Put(r) }
