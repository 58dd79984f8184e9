package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: a p99 over 200 samples is the second-largest value.
const minBeyond = 10

// tailCandidates are the percentiles tailPercentile picks from, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, or 0 when even the median does
// not.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(samples []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of samples (the lower middle for an even
// count), or 0 for none.
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	return s[(len(s)-1)/2]
}

// selfTime is a span's duration minus the parts of it its child spans
// cover. A negative result means the spans do not nest, which the layer
// budget reports instead of hiding.
func selfTime(parent float64, children ...float64) float64 {
	for _, c := range children {
		parent -= c
	}
	return parent
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rateWindow is the width of the windows throughput is counted in.
const rateWindow = time.Second

// medianRate counts the events completed in each whole rateWindow after
// start, up to end, and returns the median count per second. A median of
// windows, unlike the overall mean, does not move when a few windows are
// stalled by something outside the program.
func medianRate(start, end time.Time, done []time.Time) float64 {
	windows := int(end.Sub(start) / rateWindow)
	if windows == 0 {
		return float64(len(done)) / end.Sub(start).Seconds()
	}
	counts := make([]int, windows)
	for _, t := range done {
		if i := int(t.Sub(start) / rateWindow); i >= 0 && i < windows {
			counts[i]++
		}
	}
	sort.Ints(counts)
	return float64(counts[(windows-1)/2]) / rateWindow.Seconds()
}
