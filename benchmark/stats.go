package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is a handful of outliers
// and does not repeat from run to run.
const minBeyond = 10

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99, 90, 75, 50}

// pickTail returns the highest candidate percentile that n samples
// support (at least minBeyond samples beyond it), or 0 when even the
// median is not supported.
func pickTail(n int) float64 {
	for _, p := range tailCandidates {
		if supports(n, p) {
			return p
		}
	}
	return 0
}

// supports reports whether n samples leave at least minBeyond of them
// beyond percentile p.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9 // 100-99.9 is not exactly 0.1
}

// roundPercentiles returns percentile p of each round's samples.
func roundPercentiles(rounds [][]float64, p float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = percentile(sortedCopy(r), p)
	}
	return out
}

// tailSummary reduces per-round latency samples to a tail value: the
// highest candidate percentile, tailP, that every round supports. A
// round with at least 1000 samples is summarised on its own and the
// per-round values are then medianed, so one disturbed round cannot move
// the result; rounds with fewer samples (one job per round) are pooled
// first.
func tailSummary(rounds [][]float64) (tail, tailP float64, samples int) {
	perRound := len(rounds) > 0
	for _, r := range rounds {
		samples += len(r)
		if len(r) < 1000 {
			perRound = false
		}
	}
	if samples == 0 {
		return math.NaN(), 0, 0
	}
	if !perRound {
		pool := make([]float64, 0, samples)
		for _, r := range rounds {
			pool = append(pool, r...)
		}
		rounds = [][]float64{pool}
	}
	tailP = tailCandidates[0]
	for _, r := range rounds {
		tailP = min(tailP, pickTail(len(r)))
	}
	if tailP == 0 {
		tailP = 50 // too few samples even for a median; report it regardless
	}
	return median(roundPercentiles(rounds, tailP)), tailP, samples
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver uses to judge a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
