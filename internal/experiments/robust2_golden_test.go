package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// robustGolden renders the R2 attack-robustness grid from e.
func robustGolden(t *testing.T, e Env) Table {
	t.Helper()
	tab, err := RobustnessR2(e)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestRobustnessR2MatchesGolden pins the attack-robustness experiment
// byte-for-byte in both stable formats (regenerate with -update).
func TestRobustnessR2MatchesGolden(t *testing.T) {
	tab := robustGolden(t, freshEnv(t, 4))
	for _, f := range []struct{ format, ext string }{{"text", "txt"}, {"json", "json"}} {
		got, err := tab.Render(f.format)
		if err != nil {
			t.Fatalf("render %s: %v", f.format, err)
		}
		path := filepath.Join("testdata", "golden", "R2."+f.ext)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
				f.format, path, got, want)
		}
	}
}

// TestRobustnessR2DeterministicAcrossWorkers re-runs R2 serially and
// with a 4-way fan-out: the rendered tables must be byte-identical.
// Every cell is seeded per (policy, attack, rep) and the grid
// assembles in row order, so -j must never move a byte.
func TestRobustnessR2DeterministicAcrossWorkers(t *testing.T) {
	serial := robustGolden(t, freshEnv(t, 1))
	par := robustGolden(t, freshEnv(t, 4))
	for _, format := range []string{"text", "json"} {
		a, err := serial.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s output differs between -j 1 and -j 4\n--- j1 ---\n%s\n--- j4 ---\n%s", format, a, b)
		}
	}
}

// TestRobustnessR2ContainsFlood asserts the experiment's headline
// claim directly from the table: under the flood attack the blacklist
// policy bounds the victim's p99 well below the class-blind D-MTL
// controller's, and only the blacklist row reports a containment time.
func TestRobustnessR2ContainsFlood(t *testing.T) {
	tab := robustGolden(t, freshEnv(t, 4))
	cell := func(policy, attack string, col int) string {
		t.Helper()
		for _, r := range tab.Rows {
			if len(r) > col && r[0] == policy && r[1] == attack {
				return r[col]
			}
		}
		t.Fatalf("row (%s, %s) missing from R2", policy, attack)
		return ""
	}
	ms := func(s string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", s, err)
		}
		return v
	}
	blindP99 := ms(cell("D-MTL", "flood", 2))
	blackP99 := ms(cell("blacklist+D-MTL", "flood", 2))
	if !(blackP99 < blindP99/1.5) {
		t.Errorf("blacklist flood p99 %.3fms not well below blind D-MTL %.3fms", blackP99, blindP99)
	}
	if got := cell("D-MTL", "flood", 5); got != "-" {
		t.Errorf("class-blind D-MTL reports containment %q; it cannot attribute", got)
	}
	if got := cell("blacklist+D-MTL", "flood", 5); got == "-" || ms(got) <= 0 {
		t.Errorf("blacklist never contained the flood (contained = %q)", got)
	}
	if got := cell("blacklist+D-MTL", "none", 5); got != "-" {
		t.Errorf("blacklist demoted a class with no attacker present (contained = %q)", got)
	}
}
