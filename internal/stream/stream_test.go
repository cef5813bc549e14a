package stream

import (
	"testing"

	"memthrottle/internal/sim"
)

func sampleSpec() []PhaseSpec {
	return []PhaseSpec{
		{Name: "a", Pairs: 3, MemBytes: 1024, ComputeTime: 5 * sim.Microsecond},
		{Name: "b", Pairs: 2, MemBytes: 2048, ComputeTime: 7 * sim.Microsecond, ScatterBytes: 512},
	}
}

func TestBuildStructure(t *testing.T) {
	p := Build("sample", sampleSpec()...)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TotalPairs() != 5 {
		t.Errorf("TotalPairs = %d, want 5", p.TotalPairs())
	}
	// Phase a: 3 pairs x 2 tasks; phase b: 2 pairs x 3 tasks.
	if p.TotalTasks() != 12 {
		t.Errorf("TotalTasks = %d, want 12", p.TotalTasks())
	}
	if p.Phases[1].Pairs[1].Scatter == nil {
		t.Error("scatter task missing")
	}
	if p.Phases[0].Pairs[0].Scatter != nil {
		t.Error("unexpected scatter in phase a")
	}
}

func TestBuildTotals(t *testing.T) {
	p := Build("sample", sampleSpec()...)
	wantBytes := 3*1024.0 + 2*(2048.0+512.0)
	if got := p.TotalBytes(); got != wantBytes {
		t.Errorf("TotalBytes = %g, want %g", got, wantBytes)
	}
	wantCompute := 3*5*sim.Microsecond + 2*7*sim.Microsecond
	if got := p.TotalComputeTime(); got != wantCompute {
		t.Errorf("TotalComputeTime = %v, want %v", got, wantCompute)
	}
}

func TestTaskIDsUniqueAndOrdered(t *testing.T) {
	p := Build("sample", sampleSpec()...)
	seen := map[int]bool{}
	for _, ph := range p.Phases {
		for _, pr := range ph.Pairs {
			tasks := []*Task{pr.Gather, pr.Compute}
			if pr.Scatter != nil {
				tasks = append(tasks, pr.Scatter)
			}
			for _, task := range tasks {
				if seen[task.ID] {
					t.Fatalf("duplicate ID %d", task.ID)
				}
				seen[task.ID] = true
			}
			if pr.Compute.ID != pr.Gather.ID+1 {
				t.Errorf("pair IDs not adjacent: %d %d", pr.Gather.ID, pr.Compute.ID)
			}
		}
	}
	if len(seen) != p.TotalTasks() {
		t.Errorf("saw %d IDs, want %d", len(seen), p.TotalTasks())
	}
}

func TestKindPredicates(t *testing.T) {
	if !Gather.IsMemory() || !Scatter.IsMemory() {
		t.Error("gather/scatter not memory kinds")
	}
	if Compute.IsMemory() {
		t.Error("compute is a memory kind")
	}
	if Gather.String() != "gather" || Compute.String() != "compute" || Scatter.String() != "scatter" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestBuildPanics(t *testing.T) {
	cases := map[string]PhaseSpec{
		"zero pairs":       {Name: "x", Pairs: 0, MemBytes: 1, ComputeTime: 1},
		"zero bytes":       {Name: "x", Pairs: 1, MemBytes: 0, ComputeTime: 1},
		"zero compute":     {Name: "x", Pairs: 1, MemBytes: 1, ComputeTime: 0},
		"negative scatter": {Name: "x", Pairs: 1, MemBytes: 1, ComputeTime: 1, ScatterBytes: -1},
	}
	for name, spec := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Build("bad", spec)
		}()
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := Build("sample", sampleSpec()...)
	p.Phases[0].Pairs[0].Compute.Phase = 7
	if err := p.Validate(); err == nil {
		t.Error("mislabelled task passed validation")
	}

	p2 := Build("sample", sampleSpec()...)
	p2.Phases[0].Pairs[1].Gather = nil
	if err := p2.Validate(); err == nil {
		t.Error("missing gather passed validation")
	}

	p3 := &Program{Name: "empty"}
	if err := p3.Validate(); err == nil {
		t.Error("empty program passed validation")
	}

	p4 := Build("sample", sampleSpec()...)
	p4.Phases[0].Pairs[0].Compute = p4.Phases[0].Pairs[0].Gather
	if err := p4.Validate(); err == nil {
		t.Error("aliased task passed validation")
	}

	// IDs must rise in creation order: a repeated ID and two pairs
	// listed against their ID order are both corruption.
	p5 := Build("sample", sampleSpec()...)
	p5.Phases[0].Pairs[1].Gather.ID = p5.Phases[0].Pairs[0].Compute.ID
	if err := p5.Validate(); err == nil {
		t.Error("duplicate task ID passed validation")
	}
	p6 := Build("sample", sampleSpec()...)
	pairs := p6.Phases[0].Pairs
	pairs[0], pairs[1] = pairs[1], pairs[0]
	pairs[0].Gather.Pair, pairs[0].Compute.Pair = 0, 0
	pairs[1].Gather.Pair, pairs[1].Compute.Pair = 1, 1
	if err := p6.Validate(); err == nil {
		t.Error("pairs listed out of ID order passed validation")
	}
}
