package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	approx(t, Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12, "Mean")
	approx(t, Mean(nil), 0, 0, "Mean(nil)")
}

func TestTrimmedMeanMiddle10Of20(t *testing.T) {
	// 20 values 1..20; middle 10 are 6..15, mean 10.5.
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i) // reversed to prove sorting happens
	}
	approx(t, TrimmedMean(xs, 10), 10.5, 1e-12, "TrimmedMean")
}

func TestTrimmedMeanRejectsOutliers(t *testing.T) {
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 1e9, -1e9}
	approx(t, TrimmedMean(xs, 4), 10, 1e-12, "TrimmedMean outliers")
}

func TestTrimmedMeanKeepAtLeastLen(t *testing.T) {
	xs := []float64{1, 2, 3}
	approx(t, TrimmedMean(xs, 10), 2, 1e-12, "TrimmedMean keep>len")
}

// Property: TrimmedMean is invariant under any permutation of its
// input and never mutates it. The parallel run engine relies on this:
// per-rep times may be produced by workers in any completion order
// before assembly, and the trimmed mean must not care.
func TestTrimmedMeanPermutationInvariant(t *testing.T) {
	prop := func(raw []uint16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		keep := len(xs)/2 + 1
		want := TrimmedMean(xs, keep)
		perm := append([]float64(nil), xs...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		backup := append([]float64(nil), perm...)
		if got := TrimmedMean(perm, keep); got != want {
			return false
		}
		for i := range perm {
			if perm[i] != backup[i] {
				return false // input mutated
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMeanPanicsOnZeroKeep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for keep=0")
		}
	}()
	TrimmedMean([]float64{1}, 0)
}

func TestGeomean(t *testing.T) {
	approx(t, Geomean([]float64{1, 4}), 2, 1e-12, "Geomean")
	approx(t, Geomean([]float64{1.1, 1.1, 1.1}), 1.1, 1e-12, "Geomean equal")
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive input")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestMedian(t *testing.T) {
	approx(t, Median([]float64{3, 1, 2}), 2, 1e-12, "Median odd")
	approx(t, Median([]float64{4, 1, 2, 3}), 2.5, 1e-12, "Median even")
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Intercept, 1, 1e-9, "Intercept")
	approx(t, fit.Slope, 2, 1e-9, "Slope")
	approx(t, fit.R2, 1, 1e-9, "R2")
	approx(t, fit.Eval(10), 21, 1e-9, "Eval")
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("no error for single point")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("no error for vertical data")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("no error for length mismatch")
	}
}

func TestFitLineFlat(t *testing.T) {
	fit, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Slope, 0, 1e-12, "flat slope")
	approx(t, fit.R2, 1, 1e-12, "flat R2")
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	approx(t, w.Mean(), 5, 1e-12, "Welford mean")
	approx(t, w.Variance(), 32.0/7.0, 1e-12, "Welford variance")
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Error("Reset did not clear accumulator")
	}
}

func TestWelfordSmallN(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Stddev() != 0 {
		t.Error("empty accumulator variance nonzero")
	}
	w.Add(3)
	if w.Variance() != 0 {
		t.Error("single-sample variance nonzero")
	}
}

func TestSpeedupAndRelErr(t *testing.T) {
	approx(t, Speedup(12, 10), 1.2, 1e-12, "Speedup")
	approx(t, RelErr(11, 10), 0.1, 1e-12, "RelErr")
}

func TestNoiseDeterministicAndMedianOne(t *testing.T) {
	a := NewNoise(0.05, 42)
	b := NewNoise(0.05, 42)
	var xs []float64
	for i := 0; i < 2001; i++ {
		fa, fb := a.Factor(), b.Factor()
		if fa != fb {
			t.Fatal("same seed produced different noise")
		}
		if fa <= 0 {
			t.Fatal("noise factor not positive")
		}
		xs = append(xs, fa)
	}
	med := Median(xs)
	approx(t, med, 1, 0.02, "noise median")
}

func TestNoiseZeroSigma(t *testing.T) {
	n := NewNoise(0, 1)
	for i := 0; i < 10; i++ {
		if n.Factor() != 1 {
			t.Fatal("sigma=0 noise not identity")
		}
	}
}

// Property: trimmed mean of any sample lies within [min, max].
func TestTrimmedMeanBoundsProperty(t *testing.T) {
	prop := func(raw []int16, keepRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		keep := int(keepRaw)%len(raw) + 1
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			xs[i] = float64(v)
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		m := TrimmedMean(xs, keep)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Welford mean matches the naive mean.
func TestWelfordMatchesNaiveProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			w.Add(xs[i])
		}
		return math.Abs(w.Mean()-Mean(xs)) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNoiseResetMatchesNew pins that a reset source replays exactly the
// stream a new one with the same seed draws, whatever it drew before.
func TestNoiseResetMatchesNew(t *testing.T) {
	used := NewNoise(0.5, 7)
	for i := 0; i < 1000; i++ {
		used.Factor()
	}
	used.Reset(0.01, 42)
	fresh := NewNoise(0.01, 42)
	for i := 0; i < 1000; i++ {
		if a, b := used.Factor(), fresh.Factor(); a != b {
			t.Fatalf("draw %d: reset source %v, new source %v", i, a, b)
		}
	}
}
