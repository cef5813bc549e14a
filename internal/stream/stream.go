// Package stream represents programs written in the paper's
// gather-compute-scatter style (§II): a program is a sequence of
// phases; each phase forks t equally-sized memory/compute task pairs
// (Fig. 3). Memory tasks (gather and scatter) move a footprint of
// bytes between DRAM and the LLC; compute tasks run for a solo
// duration on cache-resident data. A compute task depends on its
// gather; an optional scatter depends on the compute.
package stream

import (
	"fmt"

	"memthrottle/internal/sim"
)

// Kind classifies a task.
type Kind int

const (
	// Gather loads a task's footprint from DRAM into the LLC.
	Gather Kind = iota
	// Compute operates on cache-resident data for a solo duration.
	Compute
	// Scatter writes results back from the LLC to DRAM.
	Scatter
)

// IsMemory reports whether the kind occupies the memory system (and
// therefore counts against the MTL constraint).
func (k Kind) IsMemory() bool { return k == Gather || k == Scatter }

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Gather:
		return "gather"
	case Compute:
		return "compute"
	case Scatter:
		return "scatter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Task is one node of the task graph.
type Task struct {
	ID    int  // unique within the program, in creation order
	Phase int  // index of the owning phase
	Pair  int  // index of the owning pair within its phase
	Kind  Kind // gather/compute/scatter

	Bytes float64  // memory tasks: bytes moved (the footprint)
	Work  sim.Time // compute tasks: solo execution time
}

// Pair groups a gather, its dependent compute, and an optional
// scatter.
type Pair struct {
	Gather  *Task
	Compute *Task
	Scatter *Task // nil when the phase writes nothing back
}

// Phase is one program phase: t identical pairs executed with
// data-level parallelism, separated from the next phase by a barrier
// (the paper's workloads run parallel functions back to back).
type Phase struct {
	Name  string
	Pairs []Pair
}

// PhaseSpec describes one phase for Build.
type PhaseSpec struct {
	Name         string
	Pairs        int      // t, the number of memory-compute pairs
	MemBytes     float64  // gather footprint per pair
	ComputeTime  sim.Time // solo compute duration per pair
	ScatterBytes float64  // optional write-back per pair (0 = none)
}

// Program is a full stream program.
type Program struct {
	Name   string
	Phases []Phase
	nTasks int
}

// Build assembles a program from phase specs. It panics on malformed
// specs: workload construction is programmer-controlled.
func Build(name string, specs ...PhaseSpec) *Program {
	p := &Program{Name: name}
	id := 0
	for pi, spec := range specs {
		if spec.Pairs <= 0 {
			panic(fmt.Sprintf("stream: phase %q has %d pairs", spec.Name, spec.Pairs))
		}
		if spec.MemBytes <= 0 {
			panic(fmt.Sprintf("stream: phase %q has MemBytes %g", spec.Name, spec.MemBytes))
		}
		if spec.ComputeTime <= 0 {
			panic(fmt.Sprintf("stream: phase %q has ComputeTime %v", spec.Name, spec.ComputeTime))
		}
		if spec.ScatterBytes < 0 {
			panic(fmt.Sprintf("stream: phase %q has ScatterBytes %g", spec.Name, spec.ScatterBytes))
		}
		ph := Phase{Name: spec.Name}
		for i := 0; i < spec.Pairs; i++ {
			pair := Pair{
				Gather:  &Task{ID: id, Phase: pi, Pair: i, Kind: Gather, Bytes: spec.MemBytes},
				Compute: &Task{ID: id + 1, Phase: pi, Pair: i, Kind: Compute, Work: spec.ComputeTime},
			}
			id += 2
			if spec.ScatterBytes > 0 {
				pair.Scatter = &Task{ID: id, Phase: pi, Pair: i, Kind: Scatter, Bytes: spec.ScatterBytes}
				id++
			}
			ph.Pairs = append(ph.Pairs, pair)
		}
		p.Phases = append(p.Phases, ph)
	}
	p.nTasks = id
	return p
}

// TotalPairs reports the number of pairs across all phases.
func (p *Program) TotalPairs() int {
	n := 0
	for _, ph := range p.Phases {
		n += len(ph.Pairs)
	}
	return n
}

// TotalTasks reports the number of tasks across all phases.
func (p *Program) TotalTasks() int { return p.nTasks }

// TotalBytes reports the bytes moved by all memory tasks.
func (p *Program) TotalBytes() float64 {
	var b float64
	for _, ph := range p.Phases {
		for _, pr := range ph.Pairs {
			b += pr.Gather.Bytes
			if pr.Scatter != nil {
				b += pr.Scatter.Bytes
			}
		}
	}
	return b
}

// TotalComputeTime reports the summed solo compute time.
func (p *Program) TotalComputeTime() sim.Time {
	var w sim.Time
	for _, ph := range p.Phases {
		for _, pr := range ph.Pairs {
			w += pr.Compute.Work
		}
	}
	return w
}

// Validate checks structural invariants of an already-built program.
func (p *Program) Validate() error {
	if len(p.Phases) == 0 {
		return fmt.Errorf("stream: program %q has no phases", p.Name)
	}
	// IDs must rise strictly in creation order (phase, pair, then
	// gather < compute < scatter), as Build numbers them: that makes
	// them unique, and the scheduler's ready queues rely on a phase's
	// pairs being listed in ID order.
	last := -1
	check := func(t *Task, phase, pair int, kind Kind) error {
		if t.Phase != phase || t.Pair != pair || t.Kind != kind {
			return fmt.Errorf("stream: task %d mislabelled: %+v", t.ID, t)
		}
		if t.ID <= last {
			return fmt.Errorf("stream: task ID %d out of creation order (follows %d)", t.ID, last)
		}
		last = t.ID
		return nil
	}
	for pi, ph := range p.Phases {
		if len(ph.Pairs) == 0 {
			return fmt.Errorf("stream: phase %d (%q) empty", pi, ph.Name)
		}
		for i, pr := range ph.Pairs {
			if pr.Gather == nil || pr.Compute == nil {
				return fmt.Errorf("stream: phase %d pair %d incomplete", pi, i)
			}
			if err := check(pr.Gather, pi, i, Gather); err != nil {
				return err
			}
			if err := check(pr.Compute, pi, i, Compute); err != nil {
				return err
			}
			if pr.Scatter != nil {
				if err := check(pr.Scatter, pi, i, Scatter); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
