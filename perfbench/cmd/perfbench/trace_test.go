package main

import (
	"testing"
	"time"
)

func TestTracerNestsSpansOfOneOperation(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	top := tr.begin("direct.request", -1, op)
	child := tr.begin("core.request", top, op)
	time.Sleep(time.Millisecond)
	inner := tr.end(child)
	outer := tr.end(top)
	if inner < time.Millisecond || outer < inner {
		t.Fatalf("span durations: child %v, parent %v", inner, outer)
	}
	if s := tr.spans[child]; s.Parent != top || s.Op != op || s.End < s.Start {
		t.Fatalf("child span %+v, want parent %d and op %d", s, top, op)
	}
	if got := tr.durations("core.request", time.Millisecond); len(got) != 1 || got[0] < 1 {
		t.Fatalf("durations = %v", got)
	}
	from := tr.epoch
	if got := tr.topLevel(from, time.Now()); got != outer {
		t.Fatalf("top-level time %v, want only the parent's %v", got, outer)
	}
}

func TestKindOf(t *testing.T) {
	for path, want := range map[string][2]string{
		"/c/f001/request?worker=w&k=10": {"f001", "request"},
		"/c/f001/submit-batch":          {"f001", "submit"},
		"/c/grow/submit":                {"grow", "submit"},
		"/c/grow/results":               {"grow", "results"},
	} {
		c, k := kindOf(path)
		if c != want[0] || k != want[1] {
			t.Errorf("kindOf(%q) = %q, %q; want %q, %q", path, c, k, want[0], want[1])
		}
	}
}

// BenchmarkSpan measures what one span costs the traced run.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer()
	for i := 0; i < b.N; i++ {
		tr.end(tr.begin("core.submit", -1, tr.newOp()))
	}
}
