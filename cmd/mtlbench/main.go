// Command mtlbench regenerates the paper's tables and figures on the
// simulated platform and prints them in paper order.
//
// Usage:
//
//	mtlbench -all                 # everything, paper methodology (20 reps)
//	mtlbench -all -quick          # everything, 3 reps
//	mtlbench -all -quick -j 8     # same, fanned out over 8 workers
//	mtlbench -fig F14             # one artifact
//	mtlbench -fig F13a -step 0.02 # denser Fig. 13 sweep
//	mtlbench -fig D1              # sharded-memory-domain sweep (1/2/4 domains)
//	mtlbench -all -quick -timings BENCH_baseline.json
//	mtlbench -fig F14 -quick -cpuprofile cpu.out -memprofile mem.out
//	mtlbench -all -cache-dir .mtlcache  # repeat runs replay from disk
//	mtlbench -fig F13a -adaptive        # coarse-to-fine preview sweep
//	mtlbench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"memthrottle/internal/experiments"
	"memthrottle/internal/parallel"
	"memthrottle/internal/prof"
)

// timingSnapshot is the -timings JSON shape: per-experiment wall-clock
// plus enough context (reps mode, workers, host) to compare snapshots.
type timingSnapshot struct {
	Generated      string             `json:"generated"`
	Quick          bool               `json:"quick"`
	Workers        int                `json:"workers"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	CalibrationSec float64            `json:"calibration_sec"`
	TotalSec       float64            `json:"total_sec"`
	Experiments    map[string]float64 `json:"experiments"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mtlbench: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the real main. It returns instead of calling log.Fatal so the
// deferred profile stop flushes on every exit path — a failed -fig
// lookup or render error must still produce a valid profile file.
func run() error {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		fig        = flag.String("fig", "", "run one experiment by ID (e.g. F14)")
		list       = flag.Bool("list", false, "list experiment IDs")
		quick      = flag.Bool("quick", false, "3 repetitions instead of the paper's 20")
		step       = flag.Float64("step", 0, "override the Fig. 13 ratio step (paper: 0.01)")
		format     = flag.String("format", "text", "output format: text | csv | json")
		jobs       = flag.Int("j", 0, "worker goroutines for independent runs (default: GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", "", "persist results (calibrations, baselines, finished experiments) in this directory")
		noCache    = flag.Bool("no-cache", false, "ignore -cache-dir: compute everything, write nothing")
		simPar     = flag.Bool("simpar", false, "shard multi-domain simulations across per-domain engines (bit-identical; composes with -j)")
		adaptive   = flag.Bool("adaptive", false, "run Fig. 13 sweeps in coarse-to-fine D-MTL mode (fast preview; not golden output)")
		timings    = flag.String("timings", "", "write a per-experiment wall-clock snapshot to this JSON file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof allocation profile to this file")
		mtxprofile = flag.String("mutexprofile", "", "write a pprof mutex-contention profile to this file")
		blkprofile = flag.String("blockprofile", "", "write a pprof blocking profile to this file")
		exectrace  = flag.String("exectrace", "", "write a runtime/trace execution trace to this file (view with go tool trace)")
	)
	flag.Parse()
	if err := jobsFlagError(*jobs); err != nil {
		return err
	}
	if err := stepFlagError(*step); err != nil {
		return err
	}

	if *list {
		for _, s := range experiments.Catalog() {
			fmt.Printf("%-5s %s\n", s.ID, s.Desc)
		}
		return nil
	}
	if !*all && *fig == "" {
		return fmt.Errorf("nothing to do: pass -all, -fig ID, or -list")
	}

	// Profiles start before any lookup or calibration so the hot path
	// is in frame; Start fails fast on an unwritable path, and the
	// deferred Stop flushes valid profile files even when the run
	// errors out below (unknown -fig, render failure, ...).
	session, err := prof.StartAll(prof.Profiles{
		CPU:   *cpuprofile,
		Mem:   *memprofile,
		Mutex: *mtxprofile,
		Block: *blkprofile,
		Trace: *exectrace,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := session.Stop(); err != nil {
			log.Print(err)
		}
	}()

	var only experiments.Spec
	if *fig != "" {
		var ok bool
		if only, ok = experiments.Find(*fig); !ok {
			return fmt.Errorf("unknown experiment %q; try -list", *fig)
		}
	}

	// The cache directory is validated before any simulation so an
	// unusable path (exists but is a file, not writable, ...) fails in
	// milliseconds with a clear message, not after calibration.
	opt := experiments.Options{SimPar: *simPar}
	if *cacheDir != "" && !*noCache {
		cache, err := experiments.OpenDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		opt.Cache = cache
	}

	parallel.SetDefault(*jobs)
	t0 := time.Now()
	env, err := experiments.NewEnv(*quick, opt)
	if err != nil {
		return err
	}
	env = env.WithWorkers(*jobs)
	calSec := time.Since(t0).Seconds()
	fmt.Printf("calibrated platform in %v (Tm4/Tm1 = %.2f on 1 DIMM, %d workers)\n\n",
		time.Since(t0).Round(time.Millisecond),
		float64(env.Cal1.Tm[3])/float64(env.Cal1.Tm[0]),
		parallel.Workers(*jobs))

	// Fig. 13 sweeps honour the -step and -adaptive overrides; the
	// override string doubles as the cache-key discriminator so a
	// customised sweep never serves (or poisons) the default entry.
	fig13Footprint := map[string]float64{"F13a": 512 << 10, "F13b": 1 << 20, "F13c": 2 << 20}
	const adaptiveCoarse = 4 // refine every 4th grid point first

	elapsed := make(map[string]float64)
	runOne := func(s experiments.Spec) error {
		t1 := time.Now()
		run := func() (experiments.Table, error) { return s.Run(env) }
		var params string
		if fp, ok := fig13Footprint[s.ID]; ok && (*step > 0 || *adaptive) {
			lo, hi, st := 0.1, 4.0, 0.1 // the catalog grid
			if *step > 0 {
				lo, st = 0.05, *step
				params = fmt.Sprintf("step=%g", *step)
			}
			if *adaptive {
				if params != "" {
					params += ","
				}
				params += fmt.Sprintf("adaptive=%d", adaptiveCoarse)
				run = func() (experiments.Table, error) {
					return experiments.Fig13Adaptive(env, fp, lo, hi, st, 64, adaptiveCoarse)
				}
			} else {
				run = func() (experiments.Table, error) {
					return experiments.Fig13(env, fp, lo, hi, st, 64)
				}
			}
		}
		tab, runErr := env.RunCached(s.ID, params, run)
		if runErr != nil {
			return fmt.Errorf("%s: %w", s.ID, runErr)
		}
		tab.Elapsed = time.Since(t1).Seconds()
		elapsed[s.ID] = tab.Elapsed
		out, err := tab.Render(*format)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}

	if *all {
		for _, s := range experiments.Catalog() {
			if err := runOne(s); err != nil {
				return err
			}
		}
	} else if err := runOne(only); err != nil {
		return err
	}

	if c := env.Cache(); c != nil {
		hits, misses, evicted := c.Stats()
		fmt.Printf("cache %s: %d hits, %d misses (%d evicted)\n", c.Dir(), hits, misses, evicted)
	}

	if *timings != "" {
		snap := timingSnapshot{
			Generated:      time.Now().UTC().Format(time.RFC3339),
			Quick:          *quick,
			Workers:        parallel.Workers(*jobs),
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			CalibrationSec: calSec,
			TotalSec:       time.Since(t0).Seconds(),
			Experiments:    elapsed,
		}
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*timings, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote timing snapshot to %s\n", *timings)
	}
	return nil
}

// jobsFlagError rejects an explicitly-passed nonsensical worker count.
// The default (flag not set) resolves to GOMAXPROCS; an explicit
// "-j 0" or negative value is a user error, not a request for the
// fallback.
func jobsFlagError(jobs int) error {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "j" {
			set = true
		}
	})
	if set && jobs < 1 {
		return fmt.Errorf("-j %d: worker count must be >= 1", jobs)
	}
	return nil
}

// stepFlagError rejects an explicitly-passed nonsensical sweep step.
// The default (flag not set, 0) means "use the catalog's step"; an
// explicit zero or negative value must error rather than be silently
// ignored.
func stepFlagError(step float64) error {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "step" {
			set = true
		}
	})
	if set && step <= 0 {
		return fmt.Errorf("-step %g: sweep step must be > 0", step)
	}
	return nil
}
