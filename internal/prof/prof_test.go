package prof

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestStartStopWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	s, err := StartAll(Profiles{CPU: cpu, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i)
	}
	_ = x
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil { // idempotent
		t.Fatalf("second Stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestStartFailsFastOnUnwritablePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")
	if _, err := StartAll(Profiles{CPU: bad}); err == nil {
		t.Fatal("unwritable cpu path did not fail")
	}
	if _, err := StartAll(Profiles{Mem: bad}); err == nil {
		t.Fatal("unwritable mem path did not fail")
	}
	// A bad mem path must also tear down an already-started CPU capture
	// so a later Start can succeed.
	good := filepath.Join(t.TempDir(), "cpu.out")
	if _, err := StartAll(Profiles{CPU: good, Mem: bad}); err == nil {
		t.Fatal("bad mem path with good cpu path did not fail")
	}
	s, err := StartAll(Profiles{CPU: good})
	if err != nil {
		t.Fatalf("cpu capture not released after failed Start: %v", err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestNoOpSession(t *testing.T) {
	s, err := StartAll(Profiles{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	var nilSession *Session
	if err := nilSession.Stop(); err != nil {
		t.Fatal("nil session Stop errored")
	}
}

func TestStartAllWritesContentionProfiles(t *testing.T) {
	dir := t.TempDir()
	p := Profiles{
		Mutex: filepath.Join(dir, "mutex.out"),
		Block: filepath.Join(dir, "block.out"),
	}
	s, err := StartAll(p)
	if err != nil {
		t.Fatal(err)
	}
	// Generate one contended critical section and one block event so
	// the samplers (armed at rate 1) have something to record.
	var mu sync.Mutex
	mu.Lock()
	done := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	mu.Unlock()
	<-done
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil { // idempotent
		t.Fatalf("second Stop: %v", err)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("mutex profile fraction not restored: %d", got)
	}
	for _, path := range []string{p.Mutex, p.Block} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestStartAllFailsFastOnUnwritableContentionPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "p.out")
	if _, err := StartAll(Profiles{Mutex: bad}); err == nil {
		t.Fatal("unwritable mutex path did not fail")
	}
	if _, err := StartAll(Profiles{Block: bad}); err == nil {
		t.Fatal("unwritable block path did not fail")
	}
	// Failed Start must leave the samplers off.
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("mutex sampler left on after failed Start: %d", got)
	}
}

func TestStartAllWritesExecutionTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.out")
	s, err := StartAll(Profiles{Trace: path})
	if err != nil {
		t.Fatal(err)
	}
	// A goroutine hop gives the tracer scheduling events to record.
	done := make(chan struct{})
	go close(done)
	<-done
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err != nil { // idempotent
		t.Fatalf("second Stop: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("trace missing: %v", err)
	}
	if fi.Size() == 0 {
		t.Errorf("%s is empty", path)
	}
}

func TestStartAllFailsFastOnUnwritableTracePath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.out")
	if _, err := StartAll(Profiles{Trace: bad}); err == nil {
		t.Fatal("unwritable trace path did not fail")
	}
	// A bad trace path must tear down the already-running CPU capture
	// so a later Start can succeed.
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	if _, err := StartAll(Profiles{CPU: cpu, Trace: bad}); err == nil {
		t.Fatal("bad trace path with good cpu path did not fail")
	}
	s, err := StartAll(Profiles{CPU: cpu})
	if err != nil {
		t.Fatalf("cpu capture not released after failed Start: %v", err)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsFillProfiles: the five capture flags every command offers
// are registered once, here, and land in the Profiles StartAll takes.
func TestFlagsFillProfiles(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	p := Flags(fs)
	args := []string{"-cpuprofile", "c", "-memprofile", "m", "-mutexprofile", "x", "-blockprofile", "b", "-exectrace", "t"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if want := (Profiles{CPU: "c", Mem: "m", Mutex: "x", Block: "b", Trace: "t"}); *p != want {
		t.Errorf("parsed %+v, want %+v", *p, want)
	}
}

// TestJobsFlagError: only an explicit -j below 1 is an error; the unset
// default of 0 means GOMAXPROCS.
func TestJobsFlagError(t *testing.T) {
	for _, c := range []struct {
		args []string
		bad  bool
	}{
		{nil, false},
		{[]string{"-j", "3"}, false},
		{[]string{"-j", "0"}, true},
		{[]string{"-j", "-2"}, true},
	} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		jobs := fs.Int("j", 0, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if err := JobsFlagError(fs, *jobs); (err != nil) != c.bad {
			t.Errorf("-j args %v: error %v, want an error: %t", c.args, err, c.bad)
		}
	}
}
