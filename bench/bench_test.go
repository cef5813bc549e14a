package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// These tests cover the harness's own arithmetic. None of them runs a
// workload: they finish in well under a second.

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) for the same data.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 9}, 4, 7, 10},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for q, want := range map[float64]float64{0.50: 50, 0.99: 99, 1.0: 100, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want the sample", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for n, want := range map[int]float64{
		3:    3, // too few for any percentile: the slowest
		19:   19,
		40:   30,   // p75: ten beyond
		1000: 990,  // p99: ten beyond
		2000: 1980, // p99, not higher, however many samples
	} {
		if got := tail(ramp(n)); got != want {
			t.Errorf("tail of 1..%d = %v, want %v", n, got, want)
		}
	}
}

func TestWindowTailsIgnoreOneStall(t *testing.T) {
	// Ten windows of 100 jobs at 10 µs; a stall in window 3 puts half
	// its jobs at 50 ms. The whole-run p99 is the stall; the median of
	// the window p99s is not.
	var due, lat []float64
	for w := 0; w < 10; w++ {
		for i := 0; i < 100; i++ {
			due = append(due, float64(w)*1e9+float64(i)*1e6)
			l := 10.0
			if w == 3 && i >= 50 {
				l = 50_000
			}
			lat = append(lat, l)
		}
	}
	// A ragged tail of three jobs must not become a window.
	for i := 0; i < 3; i++ {
		due, lat = append(due, 10e9+float64(i)), append(lat, 99_999)
	}
	p50s, p99s := windowTails(due, lat, 1e9, 50)
	if len(p50s) != 10 || len(p99s) != 10 {
		t.Fatalf("got %d/%d windows, want 10", len(p50s), len(p99s))
	}
	if whole := percentile(lat, 0.99); whole != 50_000 {
		t.Fatalf("whole-run p99 = %v, want the stall", whole)
	}
	if got := median(p99s); got != 10 {
		t.Errorf("median of window p99s = %v, want 10", got)
	}
	if p99s[3] != 50_000 {
		t.Errorf("window 3 p99 = %v, want the stall", p99s[3])
	}
}

func TestQuietIsTheLowerQuartile(t *testing.T) {
	// A run whose host was busy for more than half of it: the median
	// follows the host, the lower quartile does not.
	xs := []float64{8, 10, 12, 14, 40, 41, 42, 43, 44, 45}
	if got, med := quiet(xs), median(xs); got != 11.5 || med != 40.5 {
		t.Errorf("quiet = %v, median = %v, want 11.5 and 40.5", got, med)
	}
	if got := quiet([]float64{7}); got != 7 {
		t.Errorf("quiet of one sample = %v, want the sample", got)
	}
	// Of three samples it is the least: what a sweep's parts get.
	if got := quiet([]float64{3, 1, 2}); got != 1 {
		t.Errorf("quiet of three = %v, want 1", got)
	}
}

func TestFoldSumsThePartsLowerQuartiles(t *testing.T) {
	r := newResult()
	// Three iterations of two parts; a burst hits part a in the second
	// iteration and part b in the third, so every whole iteration but
	// the first is slow, and no part is slow twice.
	for _, it := range [][2]float64{{1, 2}, {5, 2}, {1, 9}} {
		r.addPart("wall_s", "a", it[0])
		r.addPart("wall_s", "b", it[1])
		r.addPart("cpu_s", "a", it[0]/2)
		r.addPart("cpu_s", "b", it[1]/2)
	}
	r.fold()
	want := map[string][]float64{
		"wall_s":     {3},   // 1 + 2
		"cpu_s":      {1.5}, // 0.5 + 1
		"lat_p50_us": {1e6}, // the median part (nearest rank)
		"lat_p99_us": {2e6}, // the slowest part
	}
	if !reflect.DeepEqual(r.samples, want) {
		t.Errorf("folded samples = %v, want %v", r.samples, want)
	}
}

func TestWindowTailsSkipEmptyWindows(t *testing.T) {
	due := []float64{0, 1, 2, 5e9, 5e9 + 1, 5e9 + 2}
	lat := []float64{1, 2, 3, 4, 5, 6}
	p50s, _ := windowTails(due, lat, 1e9, 3)
	if !reflect.DeepEqual(p50s, []float64{2, 5}) {
		t.Errorf("p50s = %v, want [2 5]", p50s)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a, b, c := poissonSchedule(6000, 5000, 7), poissonSchedule(6000, 5000, 7), poissonSchedule(6000, 5000, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	// 5000 arrivals at 6000/s take 5000/6000 s, within a few percent.
	if got, want := float64(a[len(a)-1])/1e9, 5000.0/6000; math.Abs(got-want) > 0.05*want {
		t.Errorf("last arrival at %.3f s, want about %.3f s", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.1", Start: 10, End: 40}, // covers a entirely
		{ID: 6, Parent: 3, Name: "b.1", Start: 35, End: 45},
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 0, 3: 20, 4: 30, 5: 30, 6: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestDigestIgnoresWhatIsNotAFigure(t *testing.T) {
	tabs, err := parseTables([]byte(`calibrated platform in 1.04s

{"id":"X2","title":"one wording","columns":["a","b"],"rows":[["1","<2>"]],"notes":["n"],"elapsed_sec":0.5}
{
  "id": "X2", "title": "another wording",
  "rows": [["1", "<2>"]],
  "columns": ["a", "b"], "elapsed_sec": 9
}
{"id":"X2","columns":["a","b"],"rows":[["1","<3>"]]}
`))
	if err != nil || len(tabs) != 3 {
		t.Fatalf("parseTables: %d tables, err %v", len(tabs), err)
	}
	if tabs[0].Elapsed != 0.5 || tabs[1].Elapsed != 9 || tabs[2].Elapsed != 0 {
		t.Errorf("elapsed_sec read as %v, %v, %v", tabs[0].Elapsed, tabs[1].Elapsed, tabs[2].Elapsed)
	}
	if tabs[0].digest() != tabs[1].digest() {
		t.Error("title, notes, elapsed time, key order or whitespace changed the digest")
	}
	if tabs[0].digest() == tabs[2].digest() {
		t.Error("a changed cell did not change the digest")
	}
	moved := table{ID: "X2", Columns: []string{"a"}, Rows: [][]string{{"b", "1", "<2>"}}}
	if moved.digest() == tabs[0].digest() {
		t.Error("moving a string from columns to rows did not change the digest")
	}
	if _, err := parseTables([]byte("no tables here")); err == nil {
		t.Error("parseTables accepted output without a table")
	}
}

func TestVerdict(t *testing.T) {
	// m is a metric whose value (the lower quartile) is v and whose
	// samples' median is med.
	m := func(v, med, bound float64, better string) metricReport {
		return metricReport{summary: summary{Value: v, Q1: v, Median: med, Q3: 2*med - v, N: 10}, Better: better, Bound: bound}
	}
	for _, c := range []struct {
		name string
		a, b metricReport
		want string
	}{
		{"within bound", m(100, 101, 0.10, "lower"), m(105, 106, 0.10, "lower"), "ok"},
		{"better", m(100, 101, 0.10, "lower"), m(50, 51, 0.10, "lower"), "ok"},
		{"worse, lower is better", m(100, 101, 0.10, "lower"), m(115, 116, 0.10, "lower"), "regressed"},
		{"worse, higher is better", m(100, 101, 0.10, "higher"), m(85, 86, 0.10, "higher"), "regressed"},
		{"higher is better and it rose", m(100, 101, 0.10, "higher"), m(130, 131, 0.10, "higher"), "ok"},
		{"base too noisy to tell", m(100, 112, 0.10, "lower"), m(115, 116, 0.10, "lower"), "unresolved"},
		{"change too noisy to tell", m(100, 101, 0.10, "lower"), m(101, 115, 0.10, "lower"), "unresolved"},
		{"a noisy upper half does not matter", m(100, 101, 0.10, "lower"), metricReport{summary: summary{Value: 104, Q1: 104, Median: 105, Q3: 900, N: 10}, Better: "lower", Bound: 0.10}, "ok"},
		{"layer timing has no bound", m(100, 101, 0, "lower"), m(300, 301, 0, "lower"), "-"},
	} {
		if got, _ := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	exact := metricReport{summary: summary{Value: 1.26, N: 1}, Exact: true}
	same, moved := exact, exact
	moved.Value = math.Nextafter(1.26, 2)
	if got, _ := verdict(exact, same); got != "ok" {
		t.Errorf("exact, equal: %q", got)
	}
	if got, _ := verdict(exact, moved); got != "moved" {
		t.Errorf("exact, one ulp off: %q", got)
	}
	if _, worse := verdict(m(100, 101, 0.1, "higher"), m(80, 81, 0.1, "higher")); math.Abs(worse-0.2) > 1e-12 {
		t.Errorf("worse = %v, want 0.2", worse)
	}
}

// The harness refuses to report a metric BENCHMARK.json does not
// declare, and the reverse; this pins the file's own shape.
func TestBenchmarkJSONShape(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for name := range exactLayer {
		if !seen[name] {
			t.Errorf("exact metric %s is not declared", name)
		}
	}
}
