package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed region
	nominal float64 // run_seconds of BENCHMARK.json: the length sizes were chosen for
	root    string  // checkout root (holds go.mod and BENCHMARK.json)
	outDir  string  // bench/out: binaries, report, traces
}

// result is what a workload's timed regions produced: per-metric
// samples, one per iteration or window, and the outcome of every
// output check. The reported value of a timing is the lower quartile
// of its samples (see quiet in stats.go); of setup_s, the median.
type result struct {
	samples map[string][]float64
	// parts holds, per metric, the samples of a workload whose
	// iteration is a fixed sequence of named parts (the experiments of
	// a sweep, the configurations of sim_dram). fold turns them into
	// the metric: the sum over parts of each part's lower quartile.
	parts     map[string]map[string][]float64
	attempted int
	failed    int
	problems  []string // first few failed checks, for the report
}

func newResult() *result {
	return &result{samples: make(map[string][]float64), parts: make(map[string]map[string][]float64)}
}

func (r *result) add(metric string, v float64) {
	r.samples[metric] = append(r.samples[metric], v)
}

func (r *result) addPart(metric, part string, v float64) {
	if r.parts[metric] == nil {
		r.parts[metric] = make(map[string][]float64)
	}
	r.parts[metric][part] = append(r.parts[metric][part], v)
}

// fold replaces the per-part samples by the metrics they stand for.
// A burst of the host that hits one part of one iteration raises one
// sample of that part; summing the parts' lower quartiles keeps it out
// of the total, where the lower quartile of whole iterations (each
// seconds long, a handful per run) would not. The wall-time parts are
// also the workload's operations: lat_p50_us is the median part and
// lat_p99_us the slowest.
func (r *result) fold() {
	for metric, parts := range r.parts {
		var sum float64
		var each []float64
		for _, samples := range parts {
			q := quiet(samples)
			sum += q
			each = append(each, q*1e6)
		}
		r.add(metric, sum)
		if metric == "wall_s" {
			r.add("lat_p50_us", percentile(each, 0.50))
			r.add("lat_p99_us", percentile(each, 1)) // the parts are a fixed set: its tail is its slowest
		}
	}
	r.parts = nil
}

// check counts n attempted operations and, when ok is false, counts
// them as failed with a reason.
func (r *result) check(ok bool, n int, format string, args ...any) {
	r.attempted += n
	if ok {
		return
	}
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up of a workload: its inputs are allocated, its
// program is built and it has been warmed once.
type instance interface {
	// measure runs the timed region for about seconds seconds: it
	// starts iterations while time is left and finishes the one in
	// progress, and makes at least one.
	measure(seconds float64, res *result)
	// close releases what setup acquired.
	close()
}

// workloadDef names one workload.
type workloadDef struct {
	name  string
	setup func(rc *runConfig) (instance, error)
}

// A run is setupRounds rounds of set up, measure for a third of the
// run's seconds, close. setup_s is the median of the rounds, and every
// other metric pools the rounds' samples: what differs from one
// instance to the next (where its buffers landed, which threads its
// workers got) is inside one run's number instead of between runs.
const setupRounds = 3

// runWorkload runs the rounds and returns the pooled samples.
func runWorkload(w workloadDef, rc *runConfig) (*result, error) {
	res := newResult()
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(rc)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		res.add("setup_s", time.Since(t0).Seconds())
		runtime.GC()
		inst.measure(rc.seconds/setupRounds, res)
		inst.close()
	}
	res.fold()
	return res, nil
}

// timeLeft reports whether a timed region of the given length that
// began at start may begin another iteration.
func timeLeft(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() < seconds
}

// cpuSeconds is the user+system CPU time this process and the children
// it has waited for have used. CPU time does not count time the
// hypervisor gave the vCPU to someone else, so it is steadier than
// wall time on a shared host.
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // only fails on a bad `who`
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return total
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// machineRule is the runtime size every host workload uses unless it
// says otherwise: as many workers as CPUs up to four, and an MTL that
// actually refuses admission (half the workers).
func machineRule() (workers, mtl int) {
	workers = min(runtime.NumCPU(), 4)
	return workers, max(1, workers/2)
}

// profile identifies the machine a report came from; reports from
// different profiles are not comparable.
type profile struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func machineProfile() profile {
	p := profile{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return p
}

// findRoot walks up from the working directory to the checkout root:
// the directory that holds BENCHMARK.json and the module's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json next to go.mod) above the working directory")
		}
		dir = parent
	}
}
