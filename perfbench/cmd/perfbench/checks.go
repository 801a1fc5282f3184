package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
)

// taskResult is one inferred outcome as GET /result and GET /results
// encode it.
type taskResult struct {
	TaskID     int
	Choice     int
	Confidence []float64
}

// checkConfidence verifies the properties every inferred outcome must
// have: a confidence vector over the task's choices with every entry in
// [0,1], summing to 1 within 1e-9, and a reported choice at its maximum.
func checkConfidence(r taskResult, choices int) error {
	if len(r.Confidence) != choices {
		return fmt.Errorf("task %d: confidence has %d entries, want %d", r.TaskID, len(r.Confidence), choices)
	}
	sum, best := 0.0, math.Inf(-1)
	for _, c := range r.Confidence {
		if !(c >= 0 && c <= 1) {
			return fmt.Errorf("task %d: confidence %v outside [0,1]", r.TaskID, c)
		}
		sum += c
		best = math.Max(best, c)
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("task %d: confidence sums to %.17g", r.TaskID, sum)
	}
	if r.Choice < 0 || r.Choice >= choices || r.Confidence[r.Choice] != best {
		return fmt.Errorf("task %d: choice %d is not the argmax of %v", r.TaskID, r.Choice, r.Confidence)
	}
	return nil
}

// majorityChoice returns the most frequent choice among votes, the lowest
// choice index on a tie, and 0 for a task nobody answered.
func majorityChoice(votes []int) int {
	counts := map[int]int{}
	best, bestN := 0, 0
	for _, v := range votes {
		counts[v]++
	}
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best
}

// majorityAccuracy is the share of the given tasks whose majority vote,
// taken over the answers the generator sent, equals the ground truth.
func majorityAccuracy(tasks []int, votes map[int][]int, truth map[int]int) float64 {
	if len(tasks) == 0 {
		return 0
	}
	right := 0
	for _, id := range tasks {
		if majorityChoice(votes[id]) == truth[id] {
			right++
		}
	}
	return float64(right) / float64(len(tasks))
}

// scoreResults checks every outcome of a /results payload and returns how
// many of the expected tasks it got right. Every expected task must appear
// exactly once and nothing else may.
func scoreResults(results []taskResult, expect map[int]int, choices map[int]int) (right int, err error) {
	seen := make(map[int]bool, len(results))
	for _, r := range results {
		truth, ok := expect[r.TaskID]
		if !ok || seen[r.TaskID] {
			return 0, fmt.Errorf("results: unexpected or repeated task %d", r.TaskID)
		}
		seen[r.TaskID] = true
		if err := checkConfidence(r, choices[r.TaskID]); err != nil {
			return 0, fmt.Errorf("results: %w", err)
		}
		if r.Choice == truth {
			right++
		}
	}
	if len(seen) != len(expect) {
		return 0, fmt.Errorf("results: %d tasks, want %d", len(seen), len(expect))
	}
	return right, nil
}

// checkFresh verifies that a HIT holds no task the worker already answered
// and no task twice.
func checkFresh(worker string, served []int, answered map[int]bool) error {
	inHIT := make(map[int]bool, len(served))
	for _, id := range served {
		if answered[id] || inHIT[id] {
			return fmt.Errorf("task %d served again to worker %s", id, worker)
		}
		inHIT[id] = true
	}
	return nil
}

// checkRedundancy verifies that no task holds more answers than the cap
// (0 = no cap).
func checkRedundancy(answers map[int]int, limit int) error {
	if limit <= 0 {
		return nil
	}
	ids := make([]int, 0, len(answers))
	for id := range answers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if answers[id] > limit {
			return fmt.Errorf("task %d holds %d answers, cap %d", id, answers[id], limit)
		}
	}
	return nil
}

// checkAcked verifies that a restarted server counts every answer that was
// acknowledged before the kill: no fewer (lost) and no more (invented).
func checkAcked(campaign string, counted, acked int64) error {
	if counted != acked {
		return fmt.Errorf("campaign %s: restarted server counts %d answers, %d were acknowledged", campaign, counted, acked)
	}
	return nil
}

// checkSameBytes verifies live ≡ recovered: the restarted server's
// /results body equals the body served before the kill.
func checkSameBytes(campaign string, before, after []byte) error {
	if !bytes.Equal(before, after) {
		return fmt.Errorf("campaign %s: /results after restart differs from before the kill (%d vs %d bytes)", campaign, len(after), len(before))
	}
	return nil
}
