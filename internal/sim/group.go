package sim

// Group coordinates several engines as one simulation. It exists for
// the domain-sharded models: each memory domain gets its own engine,
// with its own wheel and a shorter queue, while the group keeps the
// combined event history deterministic.
//
// The engines share one sequence counter and Run fires events in global
// (due, seq) order, synchronizing every engine's clock to each fire
// instant. The result is byte-identical to running the whole model on a
// single engine — same sequence numbers, same tie-breaks, same callback
// interleaving — which is what lets `-simpar` output match serial
// exactly. A group is single-threaded; its win is structural rather
// than concurrency.
type Group struct {
	engines []*Engine
	seq     uint64 // the engines' shared sequence counter
	stopped bool
}

// NewGroup builds a group over fresh engines. See Group.
func NewGroup(engines ...*Engine) *Group {
	if len(engines) == 0 {
		panic("sim: group needs at least one engine")
	}
	g := &Group{engines: engines}
	for _, e := range engines {
		if e.now != 0 || e.seq != 0 || e.gseq != nil || e.Pending() != 0 {
			panic("sim: group engines must be fresh (clock 0, no events, ungrouped)")
		}
		e.gseq = &g.seq
	}
	return g
}

// Engines returns the member engines in construction order.
func (g *Group) Engines() []*Engine { return g.engines }

// Stop aborts a Run in progress after the current event completes.
func (g *Group) Stop() { g.stopped = true }

// Now reports the latest clock across the member engines.
func (g *Group) Now() Time {
	var t Time
	for _, e := range g.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Pending reports the number of events queued across all engines.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Run fires events across all member engines in global (due, seq)
// order until every queue is empty, Stop is called, or any member
// engine's Stop is called. Because the engines share one sequence
// counter and every clock is synchronized to each fire instant, the
// trace is byte-identical to the same model living on a single engine.
func (g *Group) Run() Time {
	g.stopped = false
	for _, e := range g.engines {
		e.stopped = false
	}
	for !g.stopped {
		var owner *Engine
		var bestDue Time
		var bestSeq uint64
		for _, e := range g.engines {
			if d, s, ok := e.NextDue(); ok {
				if owner == nil || d < bestDue || (d == bestDue && s < bestSeq) {
					owner, bestDue, bestSeq = e, d, s
				}
			}
		}
		if owner == nil {
			break
		}
		// Every engine's clock reaches the fire instant before the
		// callback runs, so cross-engine After/AfterFunc calls made
		// inside it resolve against the right absolute time.
		for _, e := range g.engines {
			e.SyncTo(bestDue)
		}
		owner.Step()
		if owner.stopped {
			break
		}
	}
	return g.Now()
}
