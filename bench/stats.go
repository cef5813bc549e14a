package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (q in (0, 1]): the
// smallest sample with at least q of the samples at or below it. It
// never interpolates, so a reported latency is one that was measured.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tail is the tail latency of one window of samples: its p99 when the
// window is large enough for ten samples to lie beyond the p99, else
// the highest percentile that still has ten samples beyond it, else
// (fewer than twenty samples) the slowest sample. A percentile with
// fewer samples beyond it is set by single stalls of the host, not by
// the program.
func tail(xs []float64) float64 {
	q := 1.0
	if n := float64(len(xs)); n >= 20 {
		q = min(0.99, 1-10/n)
	}
	return percentile(xs, q)
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed here matches the one the acceptance driver computes. One
// sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quiet is how the benchmark reads a timing from its samples: their
// lower quartile. The shared host this runs on only ever adds time, in
// bursts that last from milliseconds to seconds and can cover more
// than half of a run, so the median over iterations follows the host;
// the lower quartile is the time the program takes in the run's
// quieter iterations and repeats from run to run. The minimum would
// repeat worse: the fastest iteration of a run is sometimes a fluke
// (a firehose that found every worker spinning).
func quiet(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return q1
}

// summary is one metric of one run: the value read from its
// per-iteration (or per-window) samples, their quartiles, and how many
// there were. summarize sets the median; assemble replaces it by the
// lower quartile for everything but setup_s.
type summary struct {
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	// Samples are the per-iteration values, kept when there are
	// several so a report can be re-read with another estimator.
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(samples []float64, unit string) summary {
	q1, med, q3 := quartiles(samples)
	s := summary{Value: med, Q1: q1, Median: med, Q3: q3, N: len(samples), Unit: unit}
	if len(samples) > 1 {
		s.Samples = samples
	}
	return s
}

// spread is how far the quieter half of the samples reaches, as a
// share of the value: the distance from the lower quartile to the
// median. Where it exceeds a metric's bound the host never left the
// run alone for long, and -compare calls the metric unresolved. (The
// upper half says nothing about the value: it is the host.)
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Median-s.Q1) / math.Abs(s.Value)
}

// windowTails splits latency samples into consecutive windows by their
// due times and returns each window's p50 and tail (see tail: its p99
// given a thousand samples or more). A whole-run p99 is set by the few
// worst hypervisor stalls of the run; the tail of the run's quieter
// windows (quiet) is the tail a job sees when the host leaves the
// program alone, and repeats from run to run. Windows with fewer than
// minSamples samples (the ragged last one) are dropped.
func windowTails(dueNs, latUs []float64, windowNs float64, minSamples int) (p50s, p99s []float64) {
	if len(dueNs) == 0 {
		return nil, nil
	}
	start := 0
	edge := dueNs[0] + windowNs
	flush := func(end int) {
		if end-start >= minSamples {
			p50s = append(p50s, percentile(latUs[start:end], 0.50))
			p99s = append(p99s, tail(latUs[start:end]))
		}
		start = end
	}
	for i, d := range dueNs {
		for d >= edge {
			flush(i)
			edge += windowNs
		}
	}
	flush(len(dueNs))
	return p50s, p99s
}
