package main

import (
	"math"
	"testing"
)

func TestTailLeavesEnoughSamplesBeyond(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 500 … 1, unsorted on purpose
	}
	// p95 of 1..500 is the 475th value: exactly 25 samples lie beyond it.
	if got, err := tail(xs, 9500); err != nil || got != 475 {
		t.Errorf("tail p95 of 500 = %v, %v; want 475", got, err)
	}
	if _, err := tail(xs, 9600); err == nil {
		t.Errorf("tail p96 of 500 leaves 20 beyond; want an error")
	}
	// grow's 290 requests: p90 leaves 29 beyond, p95 only 14.5.
	if _, err := tail(xs[:290], 9000); err != nil {
		t.Errorf("tail p90 of 290: %v", err)
	}
	if _, err := tail(xs[:290], 9500); err == nil {
		t.Errorf("tail p95 of 290 leaves 14.5 beyond; want an error")
	}
	if _, err := tail(nil, 9000); err == nil {
		t.Errorf("tail of no samples: want an error")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200 … 1, unsorted on purpose
	}
	if got := median(xs); got != 100 {
		t.Errorf("median = %v, want 100", got)
	}
	if got := percentile(xs, 9500); got != 190 {
		t.Errorf("p95 = %v, want 190", got)
	}
	if xs[0] != 200 {
		t.Errorf("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples is not NaN")
	}
}
