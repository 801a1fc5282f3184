package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples a reported tail must leave above it.
// Tails resting on the ten slowest calls of a run moved from run to run
// by a quarter of their value and more on a shared 2-vCPU host, so each
// workload fixes a percentile that leaves more samples beyond (see
// perfbench/README.md).
const tailBeyond = 25

// percentile returns the nearest-rank percentile (in basis points) of the
// samples; it sorts a copy and leaves xs untouched. NaN for no samples.
func percentile(xs []float64, bp int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (bp*len(s) + 9999) / 10000 // ceil(p·n)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 5000) }

// tail returns the samples' percentile at bp basis points, or an error
// when it would leave fewer than tailBeyond samples above it.
func tail(xs []float64, bp int) (float64, error) {
	if len(xs)*(10000-bp) < tailBeyond*10000 {
		return 0, fmt.Errorf("p%.2f of %d samples leaves fewer than %d beyond it", float64(bp)/100, len(xs), tailBeyond)
	}
	return percentile(xs, bp), nil
}
