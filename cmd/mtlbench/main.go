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
//	mtlbench -fig H1              # host runtime vs the §IV-A model (by ID only, not in -all)
//	mtlbench -fig F14 -quick -cpuprofile cpu.out -memprofile mem.out
//	mtlbench -list
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"memthrottle/internal/experiments"
	"memthrottle/internal/parallel"
	"memthrottle/internal/prof"
)

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
		all      = flag.Bool("all", false, "run every experiment")
		fig      = flag.String("fig", "", "run one experiment by ID (e.g. F14)")
		list     = flag.Bool("list", false, "list experiment IDs")
		quick    = flag.Bool("quick", false, "3 repetitions instead of the paper's 20")
		step     = flag.Float64("step", 0, "override the Fig. 13 ratio step (paper: 0.01)")
		format   = flag.String("format", "text", "output format: text | csv | json")
		jobs     = flag.Int("j", 0, "worker goroutines for independent runs (default: GOMAXPROCS)")
		_        = flag.Bool("no-cache", false, "accepted and ignored: there is no result cache, every run computes everything")
		profiles = prof.Flags(flag.CommandLine)
	)
	flag.Parse()
	if err := prof.JobsFlagError(flag.CommandLine, *jobs); err != nil {
		return err
	}
	if err := stepFlagError(*step); err != nil {
		return err
	}

	if *list {
		for _, s := range experiments.Catalog() {
			fmt.Printf("%-5s %s\n", s.ID, s.Desc)
		}
		if s, ok := experiments.Find("H1"); ok { // by ID only, see experiments.Find
			fmt.Printf("%-5s %s\n", s.ID, s.Desc)
		}
		return nil
	}
	if !*all && *fig == "" {
		return fmt.Errorf("nothing to do: pass -all, -fig ID, or -list")
	}

	// Profiles start before any lookup or calibration so the hot path
	// is in frame; StartAll fails fast on an unwritable path, and the
	// deferred Stop flushes valid profile files even when the run
	// errors out below (unknown -fig, render failure, ...).
	session, err := prof.StartAll(*profiles)
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

	parallel.SetDefault(*jobs)
	t0 := time.Now()
	env, err := experiments.DefaultEnv(*quick)
	if err != nil {
		return err
	}
	env = env.WithWorkers(*jobs)
	fmt.Printf("calibrated platform in %v (Tm4/Tm1 = %.2f on 1 DIMM, %d workers)\n\n",
		time.Since(t0).Round(time.Millisecond),
		float64(env.Cal1.Tm[3])/float64(env.Cal1.Tm[0]),
		parallel.Workers(*jobs))

	// Fig. 13 sweeps honour the -step override.
	fig13Footprint := map[string]float64{"F13a": 512 << 10, "F13b": 1 << 20, "F13c": 2 << 20}

	runOne := func(s experiments.Spec) error {
		t1 := time.Now()
		var tab experiments.Table
		var runErr error
		if fp, ok := fig13Footprint[s.ID]; ok && *step > 0 {
			tab, runErr = experiments.Fig13(env, fp, 0.05, 4.0, *step, 64)
		} else {
			tab, runErr = s.Run(env)
		}
		if runErr != nil {
			return fmt.Errorf("%s: %w", s.ID, runErr)
		}
		tab.Elapsed = time.Since(t1).Seconds()
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
