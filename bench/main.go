// Command bench is the repository's benchmark: five workloads that
// cover what a user waits for (an mtlbench sweep; host Run and
// Submit→complete), the checks that their outputs are right, and a
// traced mode that times every layer from outside. BENCHMARK.json at
// the checkout root is the contract: it names the workloads, the
// metrics, their units and bounds. README.md says why each exists.
//
//	bash bench/run.sh                         # every workload, untraced
//	bash bench/run.sh -trace 1                # ... then the layer budget
//	bash bench/run.sh -workload host_serve -seed 7
//	bash bench/run.sh -compare a.json b.json  # two reports, by the bounds
//
// run.sh keeps the Go build cache inside the checkout; `go run -C bench .`
// does the same work with the user's own cache.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json. Per-layer metrics have
// no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var workloads = []workloadDef{
	{"sim_sweep", setupSimSweep},
	{"sim_dram", setupSimDram},
	{"host_dispatch", setupHostDispatch},
	{"host_stream", setupHostStream},
	{"host_serve", setupHostServe},
}

// metricReport is one metric of one workload (or one layer metric) in
// a report, with what -compare needs to judge it.
type metricReport struct {
	summary
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"` // simulated: must repeat bit for bit
}

type workloadReport struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Problems  []string                `json:"problems,omitempty"`
	Seconds   float64                 `json:"seconds"` // set-up and measurement together
	Metrics   map[string]metricReport `json:"metrics"`
	Info      map[string]summary      `json:"info,omitempty"`
}

// report is what -out receives.
type report struct {
	Generated    string                    `json:"generated"`
	Profile      profile                   `json:"profile"`
	Seed         int64                     `json:"seed"`
	Seconds      float64                   `json:"seconds"`
	Workloads    map[string]workloadReport `json:"workloads"`
	Layers       *workloadReport           `json:"layers,omitempty"`
	TotalSeconds float64                   `json:"total_seconds"`
}

// driverLine is the last line of standard output of a single-workload
// run, in the shape the acceptance driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (w workloadReport) line() driverLine {
	l := driverLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: make(map[string]driverValue)}
	for name, m := range w.Metrics {
		l.Metrics[name] = driverValue{m.Value, m.Unit}
	}
	return l
}

// assemble turns a result's samples into a report entry holding
// exactly the metrics in specs; a metric that is declared but was not
// produced, or the reverse, is an error in the harness.
func assemble(res *result, specs []metricSpec, elapsed float64) (workloadReport, error) {
	w := workloadReport{
		Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Problems: res.problems, Seconds: elapsed,
		Metrics: make(map[string]metricReport), Info: make(map[string]summary),
	}
	var missing []string
	for _, s := range specs {
		samples, ok := res.samples[s.Name]
		if !ok || len(samples) == 0 {
			missing = append(missing, s.Name)
			continue
		}
		m := metricReport{summary: summarize(samples, s.Unit), Better: s.Better, Bound: s.Bound, Exact: exactLayer[s.Name]}
		if s.Name != "setup_s" {
			m.Value = quiet(samples)
		}
		w.Metrics[s.Name] = m
	}
	for name, samples := range res.samples {
		if info, ok := strings.CutPrefix(name, "info."); ok {
			w.Info[info] = summarize(samples, "")
		} else if _, ok := w.Metrics[name]; !ok {
			missing = append(missing, name+" (produced, not declared)")
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return w, fmt.Errorf("BENCHMARK.json and the harness disagree on: %s", strings.Join(missing, ", "))
	}
	return w, nil
}

func (w workloadReport) print(name string) {
	verdict := "correct"
	if !w.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("== %s: %s, %d attempted, %d failed, %.1f s\n", name, verdict, w.Attempted, w.Failed, w.Seconds)
	names := make([]string, 0, len(w.Metrics))
	for n := range w.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := w.Metrics[n]
		line := fmt.Sprintf("  %-44s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 1 {
			line += fmt.Sprintf("  quartiles %.6g %.6g %.6g  n=%d", m.Q1, m.Median, m.Q3, m.N)
		}
		if m.Bound > 0 {
			line += fmt.Sprintf("  (%s is better, bound %.0f%%)", m.Better, 100*m.Bound)
		}
		fmt.Println(line)
	}
	for n, s := range w.Info {
		fmt.Printf("  info %-39s %14.6g\n", n, s.Value)
	}
	for _, p := range w.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated schedule and input")
		seconds  = flag.Float64("seconds", 0, "length of one run's timed region (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: run the traced layer budget and report the per-layer metrics")
		out      = flag.String("out", "", "report file (default bench/out/report.json)")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments")
		update   = flag.Bool("update", false, "rewrite bench/expected from this checkout's outputs")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if err := benchmark(*workload, *seed, *seconds, *trace, *out, *update); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func benchmark(workload string, seed int64, seconds float64, trace int, out string, update bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	rc := &runConfig{seed: seed, seconds: seconds, nominal: float64(spec.RunSeconds), root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(filepath.Join(rc.outDir, "bin"), 0o755); err != nil {
		return err
	}
	if update {
		return updateExpected(rc)
	}
	var selected []workloadDef
	for _, w := range workloads {
		if workload == "all" || workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if out == "" {
		out = filepath.Join(rc.outDir, "report.json")
	}

	start := time.Now()
	rep := report{
		Generated: start.UTC().Format(time.RFC3339), Profile: machineProfile(),
		Seed: seed, Seconds: seconds, Workloads: make(map[string]workloadReport),
	}
	fmt.Printf("bench: %d CPUs, GOMAXPROCS %d, %s, %s; seed %d, %g s per run\n",
		rep.Profile.NProc, rep.Profile.GOMAXPROCS, rep.Profile.GoVersion, rep.Profile.CPUModel, seed, seconds)
	failed := false
	var last workloadReport

	// A traced run of one workload is the layer budget alone; with
	// every workload selected the untraced runs come first, so the
	// report holds both and the budget can be read against them.
	if trace == 0 || workload == "all" {
		for _, w := range selected {
			t0 := time.Now()
			res, err := runWorkload(w, rc)
			if err != nil {
				return err
			}
			wr, err := assemble(res, spec.EndToEnd, time.Since(t0).Seconds())
			if err != nil {
				return err
			}
			wr.print(w.name)
			rep.Workloads[w.name] = wr
			failed = failed || !wr.Correct
			last = wr
		}
	}
	if trace != 0 {
		t0 := time.Now()
		b := newBudget(rc)
		if err := b.run(); err != nil {
			return err
		}
		wr, err := assemble(b.res, spec.PerLayer, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		wr.print("layers")
		rep.Layers = &wr
		failed = failed || !wr.Correct
		last = wr
	}
	if sweep, ok := rep.Workloads["sim_sweep"]; ok && rep.Layers != nil {
		// The budget's parts should account for what the user waited
		// for, less process start; the two are measured minutes apart
		// on a shared host, so this is reported, not enforced.
		pass, wall := rep.Layers.Metrics["experiments.pass_s"].Value, sweep.Metrics["wall_s"].Value
		fmt.Printf("bench: sim_sweep: calibration plus every experiment took %.3f s in process, the cold subprocess %.3f s (%+.1f%%)\n",
			pass, wall, 100*(pass-wall)/wall)
	}
	rep.TotalSeconds = time.Since(start).Seconds()
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("bench: %d run(s) in %.1f s; report in %s\n", len(rep.Workloads)+min(trace, 1), rep.TotalSeconds, out)
	if workload != "all" {
		line, err := json.Marshal(last.line())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return fmt.Errorf("an output check failed; see FAILED CHECK above")
	}
	return nil
}

// run executes the whole layer budget and writes the traces.
func (b *budget) run() error {
	if err := b.simLayers(); err != nil {
		return err
	}
	if err := b.hostLayers(); err != nil {
		return err
	}
	for name, tr := range b.traces {
		if err := tr.write(filepath.Join(b.rc.outDir, "trace-"+name+".json"), 50_000); err != nil {
			return err
		}
	}
	return nil
}

// updateExpected regenerates bench/expected from this checkout: one
// sweep's digests and the three calibration fits.
func updateExpected(rc *runConfig) error {
	bin, err := buildMtlbench(rc)
	if err != nil {
		return err
	}
	tabs, _, _, err := (&simSweep{bin: bin}).sweep()
	if err != nil {
		return err
	}
	exp := sweepExpected{Digests: make(map[string]string)}
	for _, t := range tabs {
		if t.ID != hostWallClockTable {
			exp.Digests[t.ID] = t.digest()
		}
	}
	if err := writeJSON(expectedPath(rc, "sim_sweep.json"), exp); err != nil {
		return err
	}
	var fits []dramFit
	for _, c := range dramConfigs() {
		cal, err := calibrate(c)
		if err != nil {
			return err
		}
		fits = append(fits, fitOf(c.name, cal))
	}
	return writeJSON(expectedPath(rc, "sim_dram.json"), fits)
}
