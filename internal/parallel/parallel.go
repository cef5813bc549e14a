// Package parallel is the run engine behind the experiment harness: a
// bounded worker pool that fans independent jobs out across OS threads
// and reassembles their results in submission order. Because every
// simulation runs on its own virtual clock, host scheduling cannot
// perturb a measurement — parallel execution is byte-identical to
// serial execution as long as each job is deterministic in its index,
// which this package guarantees by storing result i at slot i
// regardless of completion order.
//
// Jobs are drawn from a shared atomic counter (a degenerate
// work-stealing deque: one global tail), so a slow job never blocks
// the workers from draining the rest of the batch.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is the value Map re-raises when a job panics on a worker
// goroutine. It carries the worker's stack captured at recover time:
// by the time the panic surfaces on the calling goroutine the worker
// is gone, and without this the trace of the actual failure site would
// be lost. Single-worker (inline) execution panics on the caller's own
// stack and is not wrapped.
type Panic struct {
	Value any    // the job's original panic value
	Stack []byte // debug.Stack() of the panicking worker
}

// Error makes a re-raised Panic readable when recovered as an error.
func (p Panic) Error() string {
	return fmt.Sprintf("parallel: job panicked: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// String mirrors Error for %v formatting of the raw panic value.
func (p Panic) String() string { return p.Error() }

// Unwrap exposes an underlying error panic value to errors.Is/As.
func (p Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// defaultWorkers is the process-wide fallback worker count; 0 means
// "resolve to GOMAXPROCS at use time".
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a
// call site passes workers <= 0. n <= 0 restores the GOMAXPROCS
// fallback. CLI -j flags funnel through here.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default reports the current process-wide default worker count.
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers resolves a requested worker count: n >= 1 is taken as-is,
// anything else falls back to Default().
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return Default()
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 resolves via Workers) and returns the results in index
// order. A panic in any job is re-raised on the calling goroutine
// after the pool drains, wrapped in a Panic that carries the worker's
// stack; jobs not yet started when a panic occurs are skipped.
func Map[T any](workers, n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicMu  sync.Mutex
		panicVal any
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							// Capture the stack here, on the dying
							// worker; don't re-wrap a Panic from a
							// nested Map, whose stack is the one that
							// matters.
							pv, ok := r.(Panic)
							if !ok {
								pv = Panic{Value: r, Stack: debug.Stack()}
							}
							panicMu.Lock()
							if !panicked.Load() {
								panicVal = pv
								panicked.Store(true)
							}
							panicMu.Unlock()
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return out
}
