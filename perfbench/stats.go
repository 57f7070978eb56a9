package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule on
// a sorted copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of durations, converted by unit (ms or us).
func medianDur(ds []time.Duration, unit func(time.Duration) float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = unit(d)
	}
	return median(xs)
}

// latencyWindows is the most equal windows of a phase a figure is taken
// over. Each window must hold at least one sample beyond the percentile
// and minPerWindow samples in all, so that a window's mix of request kinds
// is near the phase's own. Below minWindows windows, a median of window
// figures would rest on too few of them and throw most of the sample away.
const (
	latencyWindows = 9
	minPerWindow   = 20
	minWindows     = 5
)

// windowed splits samples by start time into equal windows of span and
// returns the median of the windows' q-quantiles, so a burst that slows one
// window does not move it. It uses as many windows as the limits above
// allow; with too few samples for minWindows, it is the plain quantile.
func windowed(xs []float64, starts []time.Duration, span time.Duration, q float64) float64 {
	n := min(latencyWindows, int(float64(len(xs))*(1-q)), len(xs)/minPerWindow)
	if n < minWindows || span <= 0 {
		return quantile(xs, q)
	}
	buckets := make([][]float64, n)
	for i, x := range xs {
		w := min(max(int(int64(starts[i])*int64(n)/int64(span)), 0), n-1)
		buckets[w] = append(buckets[w], x)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, quantile(b, q))
		}
	}
	return median(per)
}
