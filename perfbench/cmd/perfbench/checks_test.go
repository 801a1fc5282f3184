package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"docs/internal/kb"
	"docs/internal/store"
	"docs/internal/truth"
)

func TestMajorityVote(t *testing.T) {
	for _, tc := range []struct {
		votes []int
		want  int
	}{
		{nil, 0},
		{[]int{1}, 1},
		{[]int{1, 0, 1}, 1},
		{[]int{2, 1, 1, 2}, 1}, // tie: lowest choice
		{[]int{3, 3, 0}, 3},
	} {
		if got := majorityChoice(tc.votes); got != tc.want {
			t.Errorf("majorityChoice(%v) = %d, want %d", tc.votes, got, tc.want)
		}
	}
	votes := map[int][]int{0: {1, 1, 0}, 1: {0, 1}, 2: {2}}
	truth := map[int]int{0: 1, 1: 1, 2: 2, 3: 0}
	// task 0 right, task 1 tie → 0 (wrong), task 2 right, task 3 unanswered → 0 (right)
	if got := majorityAccuracy([]int{0, 1, 2, 3}, votes, truth); got != 0.75 {
		t.Errorf("majorityAccuracy = %v, want 0.75", got)
	}
}

func TestCheckConfidence(t *testing.T) {
	good := taskResult{TaskID: 1, Choice: 1, Confidence: []float64{0.25, 0.75}}
	if err := checkConfidence(good, 2); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	tie := taskResult{TaskID: 1, Choice: 0, Confidence: []float64{0.5, 0.5}}
	if err := checkConfidence(tie, 2); err != nil {
		t.Fatalf("argmax tie rejected: %v", err)
	}
	for name, bad := range map[string]struct {
		r       taskResult
		choices int
	}{
		"not argmax":     {taskResult{Choice: 0, Confidence: []float64{0.25, 0.75}}, 2},
		"sum off":        {taskResult{Choice: 1, Confidence: []float64{0.25, 0.7500001}}, 2},
		"negative":       {taskResult{Choice: 1, Confidence: []float64{-0.5, 1.5}}, 2},
		"NaN":            {taskResult{Choice: 1, Confidence: []float64{nan(), 1}}, 2},
		"wrong length":   {taskResult{Choice: 1, Confidence: []float64{0.25, 0.75}}, 3},
		"choice too big": {taskResult{Choice: 2, Confidence: []float64{0.25, 0.75}}, 2},
	} {
		if err := checkConfidence(bad.r, bad.choices); err == nil {
			t.Errorf("%s: accepted %+v", name, bad.r)
		}
	}
}

func nan() float64 { var z float64; return z / z }

func TestScoreResults(t *testing.T) {
	expect := map[int]int{0: 1, 1: 0}
	choices := map[int]int{0: 2, 1: 2}
	ok := []taskResult{
		{TaskID: 0, Choice: 1, Confidence: []float64{0.2, 0.8}},
		{TaskID: 1, Choice: 1, Confidence: []float64{0.4, 0.6}},
	}
	right, err := scoreResults(ok, expect, choices)
	if err != nil || right != 1 {
		t.Fatalf("scoreResults = %d, %v; want 1, nil", right, err)
	}
	for name, bad := range map[string][]taskResult{
		"missing task":    ok[:1],
		"repeated task":   {ok[0], ok[0]},
		"unexpected task": {ok[0], ok[1], {TaskID: 7, Choice: 0, Confidence: []float64{1, 0}}},
		"bad confidence":  {ok[0], {TaskID: 1, Choice: 0, Confidence: []float64{0.4, 0.6}}},
	} {
		if _, err := scoreResults(bad, expect, choices); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckFresh(t *testing.T) {
	answered := map[int]bool{3: true}
	if err := checkFresh("w", []int{1, 2}, answered); err != nil {
		t.Fatalf("fresh HIT rejected: %v", err)
	}
	if err := checkFresh("w", []int{1, 3}, answered); err == nil || !strings.Contains(err.Error(), "task 3") {
		t.Errorf("answered task served again: got %v", err)
	}
	if err := checkFresh("w", []int{1, 1}, answered); err == nil {
		t.Errorf("task served twice in one HIT: accepted")
	}
}

func TestCheckRedundancy(t *testing.T) {
	counts := map[int]int{0: 3, 1: 5}
	if err := checkRedundancy(counts, 5); err != nil {
		t.Fatalf("counts within the cap rejected: %v", err)
	}
	if err := checkRedundancy(counts, 0); err != nil {
		t.Fatalf("no cap rejected: %v", err)
	}
	if err := checkRedundancy(counts, 4); err == nil || !strings.Contains(err.Error(), "task 1") {
		t.Errorf("task above the cap: got %v", err)
	}
}

func TestCheckAckedAndSameBytes(t *testing.T) {
	if err := checkAcked("c", 10, 10); err != nil {
		t.Fatalf("equal counts rejected: %v", err)
	}
	if checkAcked("c", 9, 10) == nil {
		t.Errorf("lost answer accepted")
	}
	if checkAcked("c", 11, 10) == nil {
		t.Errorf("invented answer accepted")
	}
	if err := checkSameBytes("c", []byte(`{"a":1}`), []byte(`{"a":1}`)); err != nil {
		t.Fatalf("equal bodies rejected: %v", err)
	}
	if checkSameBytes("c", []byte(`{"a":1}`), []byte(`{"a":2}`)) == nil {
		t.Errorf("different bodies accepted")
	}
}

func TestStoreRecordsSeeAMerge(t *testing.T) {
	data, scratch := t.TempDir(), filepath.Join(t.TempDir(), "copy")
	m := kb.MustDefault().Domains().Size()
	st, err := store.Open(filepath.Join(data, "store.json"), m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	session := truth.NewStats(m)
	session.U[0] = 2
	if err := st.Merge("w1", session); err != nil {
		t.Fatal(err)
	}
	before, err := storeRecords(data, scratch)
	if err != nil {
		t.Fatal(err)
	}
	again, err := storeRecords(data, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, again) {
		t.Fatalf("records changed without a merge")
	}
	if err := st.Merge("w1", session); err != nil {
		t.Fatal(err)
	}
	after, err := storeRecords(data, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatalf("a second merge of the same session left the records unchanged: %v", after)
	}
}

func TestCheckEnd(t *testing.T) {
	d := &runner{
		p:     &plan{majority: true, server: serverConfig{redundancy: 2}, campaigns: []*campaignPlan{{name: "c"}}},
		camps: []*campaignState{{votes: map[int][]int{0: {1, 1}, 1: {0}}}},
	}
	if err := d.checkEnd(outcome{right: 3, all: 4, majority: 0.75}); err != nil {
		t.Fatalf("accuracy equal to majority vote rejected: %v", err)
	}
	if d.checkEnd(outcome{right: 2, all: 4, majority: 0.75}) == nil {
		t.Errorf("accuracy below majority vote accepted")
	}
	d.camps[0].votes[1] = []int{0, 1, 0}
	if err := d.checkEnd(outcome{right: 3, all: 4, majority: 0.75}); err == nil || !strings.Contains(err.Error(), "task 1") {
		t.Errorf("task above the redundancy cap: got %v", err)
	}
}
