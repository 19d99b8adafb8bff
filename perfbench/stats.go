package main

import (
	"math"
	"sort"

	"wrht/internal/obs"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tail returns the highest percentile of xs, capped at the 99th, that
// has at least tailSamples samples beyond it, together with its level
// (0.99 = p99). With tailSamples or fewer samples no percentile
// qualifies and the maximum is returned at level 1. Infinite samples
// (failed requests) sort last, so they count as beyond every finite
// percentile.
func tail(xs []float64) (v, level float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n <= tailSamples {
		return s[n-1], 1
	}
	// Nearest rank: the k-th smallest sample leaves n-k samples above it.
	k := n - tailSamples
	if float64(k) >= 0.99*float64(n) {
		k = int(math.Ceil(0.99 * float64(n)))
		return s[k-1], 0.99
	}
	return s[k-1], float64(k) / float64(n)
}

// geomean returns the geometric mean of the positive values in xs (0
// when there are none).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// mergeHist folds every histogram series of family in snap (all label
// values) into one snapshot, so a quantile can be read across them.
func mergeHist(snap obs.Snapshot, family string) obs.HistogramSnapshot {
	counts := map[int]obs.HistogramBucket{}
	var out obs.HistogramSnapshot
	for name, h := range snap.Histograms {
		if name != family && !hasFamily(name, family) {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		out.Max = math.Max(out.Max, h.Max)
		for _, b := range h.Buckets {
			m := counts[b.Index]
			m.Index, m.UpperBound = b.Index, b.UpperBound
			m.Count += b.Count
			counts[b.Index] = m
		}
	}
	for _, b := range counts {
		out.Buckets = append(out.Buckets, b)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Index < out.Buckets[j].Index })
	return out
}

// hasFamily reports whether a labeled series name belongs to family.
func hasFamily(name, family string) bool {
	return len(name) > len(family) && name[:len(family)] == family && name[len(family)] == '{'
}
