package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden figure outputs from the current code:
//
//	go test ./internal/experiments -run TestFigureOutputsMatchGolden -update
//
// The committed goldens were captured on the pre-optimization tree, so
// this test is the determinism contract of the zero-allocation hot
// path: pooling requests, specializing the event heap and reordering
// the FR-FCFS bookkeeping must not move a single byte of any table.
var update = flag.Bool("update", false, "rewrite golden figure output files")

// TestFigureOutputsMatchGolden renders the Fig. 13 quick sweep and the
// full Fig. 14 grid on one worker in every stable format and compares
// them byte-for-byte against the committed goldens.
func TestFigureOutputsMatchGolden(t *testing.T) {
	compareFiguresToGolden(t, freshEnv(t, 1))
}

// TestFigureOutputsMatchGoldenAccelerated re-renders the golden
// figures on four workers (`-j 4`). It must match the committed goldens
// byte for byte: the worker count never moves a number.
//
// The subtest keeps the name it had when a -simpar option selected a
// sharded simulation; that option is gone, so it builds its
// environment through NewEnv with Options, as the CLIs do, and renders
// with the one engine per simulation.
func TestFigureOutputsMatchGoldenAccelerated(t *testing.T) {
	if *update {
		t.Skip("goldens are updated by the plain variant only")
	}
	t.Run("simpar", func(t *testing.T) {
		e, err := NewEnv(true, Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareFiguresToGolden(t, e.WithWorkers(4))
	})
}

// compareFiguresToGolden renders the golden artifact set from e and
// diffs it against testdata/golden (rewriting with -update).
func compareFiguresToGolden(t *testing.T, e Env) {
	t.Helper()
	f13, err := Fig13(e, 512<<10, 0.3, 1.5, 0.4, 32)
	if err != nil {
		t.Fatal(err)
	}
	builds := []struct {
		name string
		tab  Table
	}{
		{"F13-quick", f13},
		{"F14", Fig14(e)},
	}
	formats := []struct{ format, ext string }{{"text", "txt"}, {"json", "json"}}
	for _, b := range builds {
		for _, f := range formats {
			got, err := b.tab.Render(f.format)
			if err != nil {
				t.Fatalf("%s: render %s: %v", b.name, f.format, err)
			}
			path := filepath.Join("testdata", "golden", b.name+"."+f.ext)
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
				t.Fatalf("%s: missing golden (run with -update to create): %v", b.name, err)
			}
			if got != string(want) {
				t.Errorf("%s: %s output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					b.name, f.format, path, got, want)
			}
		}
	}
}
