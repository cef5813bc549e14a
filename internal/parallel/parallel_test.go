package parallel

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapSubmissionOrderUnderSkew induces heavy per-worker skew (early
// jobs sleep longest) and checks that results still land in submission
// order — the determinism guarantee the experiment layer builds on.
func TestMapSubmissionOrderUnderSkew(t *testing.T) {
	const n = 32
	out := Map(4, n, func(i int) int {
		// Earlier jobs are slower, so completion order inverts
		// submission order within each worker's stride.
		time.Sleep(time.Duration(n-i) * 500 * time.Microsecond)
		return i * i
	})
	if len(out) != n {
		t.Fatalf("len = %d, want %d", len(out), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	Map(workers, 64, func(i int) struct{} {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

func TestMapSerialWhenOneWorker(t *testing.T) {
	var order []int
	Map(1, 8, func(i int) struct{} {
		order = append(order, i) // safe: single worker runs inline
		return struct{}{}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution out of order: %v", order)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		p, ok := r.(Panic)
		if !ok {
			t.Fatalf("panic value = %T(%v), want parallel.Panic", r, r)
		}
		if s, ok := p.Value.(string); !ok || s != "boom" {
			t.Fatalf("wrapped panic value = %v, want boom", p.Value)
		}
		// The stack must be the worker's, captured at recover time:
		// it names the panicking job, not just Map's caller.
		if !strings.Contains(string(p.Stack), "parallel_test.go") {
			t.Errorf("worker stack does not reach the job:\n%s", p.Stack)
		}
		if !strings.Contains(p.Error(), "boom") {
			t.Errorf("Panic.Error() lacks the value: %s", p.Error())
		}
	}()
	Map(4, 16, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	})
}

// TestMapPanicWrapsError: error panic values stay reachable through
// errors.Is on the wrapper.
func TestMapPanicWrapsError(t *testing.T) {
	sentinel := errors.New("job exploded")
	defer func() {
		p, ok := recover().(Panic)
		if !ok {
			t.Fatal("no Panic propagated")
		}
		if !errors.Is(p, sentinel) {
			t.Errorf("errors.Is cannot see the panic error through Panic")
		}
	}()
	Map(2, 4, func(i int) int { panic(sentinel) })
}

// TestMapNestedPanicNotRewrapped: a Panic crossing a nested Map keeps
// the innermost worker's stack.
func TestMapNestedPanicNotRewrapped(t *testing.T) {
	defer func() {
		p, ok := recover().(Panic)
		if !ok {
			t.Fatal("no Panic propagated")
		}
		if _, nested := p.Value.(Panic); nested {
			t.Error("Panic was double-wrapped crossing nested Map")
		}
		if s, _ := p.Value.(string); s != "inner boom" {
			t.Errorf("inner panic value lost: %v", p.Value)
		}
	}()
	Map(2, 2, func(i int) int {
		return Map(2, 2, func(j int) int { panic("inner boom") })[0]
	})
}

func TestMapEmpty(t *testing.T) {
	if out := Map(4, 0, func(i int) int { return i }); out != nil {
		t.Errorf("Map of 0 jobs = %v, want nil", out)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
	SetDefault(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefault(2)
	if got := Workers(0); got != 2 {
		t.Errorf("Workers(0) with default 2 = %d", got)
	}
	if got := Workers(-3); got != 2 {
		t.Errorf("Workers(-3) with default 2 = %d", got)
	}
	SetDefault(0)
}
