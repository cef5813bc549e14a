// Package prof wires pprof CPU, heap, mutex and block profiling plus
// runtime/trace execution traces into the CLIs. It exists so every
// command handles profiles identically: the same five flags (Flags),
// paths opened (and thus validated) before any simulation work
// starts, and Stop flushing every profile on every exit path —
// including error returns — as long as the caller defers it. The -j
// check the simulator commands share (JobsFlagError) lives here too.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles names the capture paths for one session; empty fields are
// skipped. CPU and Trace stream for the whole session; Mem, Mutex and
// Block are snapshotted at Stop time, when the picture is complete.
type Profiles struct {
	CPU   string
	Mem   string
	Mutex string // sync contention (runtime.SetMutexProfileFraction)
	Block string // blocking events (runtime.SetBlockProfileRate)
	Trace string // runtime/trace execution trace (`go tool trace`)
}

// Flags registers the capture flags every command offers on fs —
// -cpuprofile, -memprofile, -mutexprofile, -blockprofile, -exectrace —
// and returns the Profiles they fill in, for StartAll once fs is parsed.
func Flags(fs *flag.FlagSet) *Profiles {
	p := new(Profiles)
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof allocation profile to this file")
	fs.StringVar(&p.Mutex, "mutexprofile", "", "write a pprof mutex-contention profile to this file")
	fs.StringVar(&p.Block, "blockprofile", "", "write a pprof blocking profile to this file")
	fs.StringVar(&p.Trace, "exectrace", "", "write a runtime/trace execution trace to this file (view with go tool trace)")
	return p
}

// JobsFlagError rejects an explicitly-passed nonsensical -j worker
// count on a parsed fs. The default (flag not set) resolves to
// GOMAXPROCS; an explicit "-j 0" or negative value is a user error, not
// a request for the fallback.
func JobsFlagError(fs *flag.FlagSet, jobs int) error {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "j" })
	if set && jobs < 1 {
		return fmt.Errorf("-j %d: worker count must be >= 1", jobs)
	}
	return nil
}

// Session is a running profile capture. The zero value (from StartAll
// with empty paths) is a valid no-op.
type Session struct {
	cpuFile   *os.File
	traceFile *os.File
	memPath   string
	mutexPath string
	blockPath string

	prevMutexFraction int
	blockRateSet      bool
}

// StartAll begins every capture requested by the (possibly empty)
// paths. It fails fast: an unwritable path is reported before the
// caller burns minutes of simulation, not after. On error, anything
// already started is torn down.
//
// Requesting a mutex or block profile turns the corresponding runtime
// sampler on (mutex fraction 1, block rate 1 — every event) for the
// lifetime of the session; Stop restores the previous settings, so the
// instrumented window is exactly StartAll..Stop.
func StartAll(p Profiles) (*Session, error) {
	s := &Session{memPath: p.Mem, mutexPath: p.Mutex, blockPath: p.Block}
	// Validate the Stop-time paths first — cheapest to unwind.
	for _, path := range []string{p.Mem, p.Mutex, p.Block} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("prof: create profile: %w", err)
		}
		f.Close()
	}
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("prof: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
		s.cpuFile = f
	}
	if p.Trace != "" {
		f, err := os.Create(p.Trace)
		if err == nil {
			if err = trace.Start(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			if s.cpuFile != nil { // tear down the running capture
				pprof.StopCPUProfile()
				s.cpuFile.Close()
			}
			return nil, fmt.Errorf("prof: start execution trace: %w", err)
		}
		s.traceFile = f
	}
	if p.Mutex != "" {
		s.prevMutexFraction = runtime.SetMutexProfileFraction(1)
	}
	if p.Block != "" {
		runtime.SetBlockProfileRate(1)
		s.blockRateSet = true
	}
	return s, nil
}

// Stop flushes and closes every active capture and restores the
// runtime sampler settings. It is idempotent and safe to defer
// immediately after a successful StartAll.
func (s *Session) Stop() error {
	if s == nil {
		return nil
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			keep(fmt.Errorf("prof: close cpu profile: %w", err))
		}
		s.cpuFile = nil
	}
	if s.traceFile != nil {
		trace.Stop() // flushes buffered events to the file
		if err := s.traceFile.Close(); err != nil {
			keep(fmt.Errorf("prof: close execution trace: %w", err))
		}
		s.traceFile = nil
	}
	if s.memPath != "" {
		runtime.GC() // materialize the final live-heap picture
		keep(writeLookup("allocs", s.memPath))
		s.memPath = ""
	}
	if s.mutexPath != "" {
		keep(writeLookup("mutex", s.mutexPath))
		runtime.SetMutexProfileFraction(s.prevMutexFraction)
		s.mutexPath = ""
	}
	if s.blockPath != "" {
		keep(writeLookup("block", s.blockPath))
		s.blockPath = ""
	}
	if s.blockRateSet {
		runtime.SetBlockProfileRate(0)
		s.blockRateSet = false
	}
	return firstErr
}

// writeLookup snapshots one named runtime profile to path.
func writeLookup(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: create %s profile: %w", name, err)
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("prof: write %s profile: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("prof: close %s profile: %w", name, err)
	}
	return nil
}
