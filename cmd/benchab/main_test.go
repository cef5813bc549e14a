package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// benchOutput renders `go test -bench -benchmem` output, one line per
// benchmark at the given ns/op and allocs/op, with the runner's header
// and trailer around it.
func benchOutput(lines map[string][2]float64) string {
	var sb strings.Builder
	sb.WriteString("goos: linux\ngoarch: amd64\npkg: memthrottle/internal/sim\ncpu: Intel(R) Xeon(R) CPU\n")
	names := make([]string, 0, len(lines))
	for n := range lines {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		v := lines[n]
		fmt.Fprintf(&sb, "%s   \t 1000000\t %10.2f ns/op\t       0 B/op\t %7.0f allocs/op\n", n, v[0], v[1])
	}
	sb.WriteString("PASS\nok  \tmemthrottle/internal/sim\t12.3s\n")
	return sb.String()
}

func TestGate(t *testing.T) {
	// Five pairs, as make bench-check runs by default. The base of
	// BenchmarkTight spreads 99..101 (quartiles 99.5 and 100.5); the
	// base of BenchmarkWide spreads 60..140 (quartiles 70 and 130).
	tight := []float64{100, 99, 101, 100, 100}
	wide := []float64{100, 60, 140, 80, 120}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	// Names carry the -N GOMAXPROCS suffix in some runs and not in
	// others; the parser joins them.
	cases := []struct {
		name        string
		base        map[string][]float64 // output name -> ns/op per pair
		change      map[string][]float64
		allocs      float64 // the change's allocs/op on every benchmark
		zeroAlloc   []string
		wantFail    []string // benchmarks named in failures
		wantPrinted []string
	}{
		{
			name:     "20% outside the base's spread fails",
			base:     map[string][]float64{"BenchmarkTight-2": tight},
			change:   map[string][]float64{"BenchmarkTight-2": scale(tight, 1.2)},
			wantFail: []string{"BenchmarkTight"},
		},
		{
			name:   "20% inside a wide base spread passes",
			base:   map[string][]float64{"BenchmarkWide": wide},
			change: map[string][]float64{"BenchmarkWide-8": scale(wide, 1.2)},
		},
		{
			name:   "10% outside the base's spread passes",
			base:   map[string][]float64{"BenchmarkTight-2": tight},
			change: map[string][]float64{"BenchmarkTight-2": scale(tight, 1.1)},
		},
		{
			name:      "zero-alloc benchmark at 1 alloc/op fails",
			base:      map[string][]float64{"BenchmarkTight-2": tight},
			change:    map[string][]float64{"BenchmarkTight-2": tight},
			allocs:    1,
			zeroAlloc: []string{"BenchmarkTight"},
			wantFail:  []string{"BenchmarkTight"},
		},
		{
			name:      "zero-alloc benchmark missing from the change fails",
			base:      map[string][]float64{"BenchmarkTight-2": tight, "BenchmarkGone-2": tight},
			change:    map[string][]float64{"BenchmarkTight-2": tight},
			zeroAlloc: []string{"BenchmarkTight", "BenchmarkGone"},
			wantFail:  []string{"BenchmarkGone"},
		},
		{
			name:        "a benchmark in one side only is printed and passes",
			base:        map[string][]float64{"BenchmarkTight-2": tight, "BenchmarkOld-2": tight},
			change:      map[string][]float64{"BenchmarkTight-2": tight, "BenchmarkNew-2": scale(tight, 3)},
			wantPrinted: []string{"BenchmarkOld only in the base", "BenchmarkNew only in the change"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			values := map[string]*series{}
			allocs := map[string][]float64{}
			for p := range 5 {
				for _, side := range []struct {
					name string
					runs map[string][]float64
				}{{"base", tc.base}, {"change", tc.change}} {
					lines := map[string][2]float64{}
					for n, ns := range side.runs {
						lines[n] = [2]float64{ns[p], tc.allocs}
					}
					res, err := parseBench(strings.NewReader(benchOutput(lines)))
					if err != nil {
						t.Fatal(err)
					}
					if len(res) != len(lines) {
						t.Fatalf("parsed %d benchmarks from %d lines: %v", len(res), len(lines), res)
					}
					for n, m := range benchMetrics(side.name, res, allocs) {
						add(values, side.name, n, m)
					}
				}
			}
			var out strings.Builder
			failures := gate(summarize(&out, values), allocs, tc.zeroAlloc)
			var failed []string
			for _, f := range failures {
				failed = append(failed, strings.SplitN(f, ":", 2)[0])
			}
			if !slices.Equal(failed, tc.wantFail) {
				t.Errorf("failures %q, want failures for %q\n%s", failures, tc.wantFail, out.String())
			}
			for _, want := range tc.wantPrinted {
				if !strings.Contains(strings.Join(strings.Fields(out.String()), " "), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkEngineStepWheel-2   	57024468	        20.86 ns/op	       0 B/op	       0 allocs/op
BenchmarkCalibrate          	       8	 145591014 ns/op	   54040 B/op	     448 allocs/op
BenchmarkSchedulerPairs-16  	     500	   2165462 ns/op	         3.500 pairs/ms	 1134525 B/op	   17663 allocs/op
BenchmarkTable2Ratios
--- SKIP: BenchmarkTable2Ratios
PASS
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchResult{
		"BenchmarkEngineStepWheel": {ns: 20.86, allocs: 0},
		"BenchmarkCalibrate":       {ns: 145591014, allocs: 448},
		"BenchmarkSchedulerPairs":  {ns: 2165462, allocs: 17663},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("%s: parsed %+v, want %+v", n, got[n], w)
		}
	}
	if _, err := parseBench(strings.NewReader("BenchmarkX-2 10 fast ns/op\n")); err == nil {
		t.Error("a non-numeric value parsed without error")
	}
}
