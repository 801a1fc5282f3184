package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"docs"
	"docs/internal/httpapi"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, op int64) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// timed runs fn inside a top-level span of its own operation.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	i := t.begin(name, -1, t.newOp())
	err := fn()
	return t.end(i), err
}

// durations returns the durations of the named spans in the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// topLevel sums the durations of the top-level spans that started within
// [from, to).
func (t *tracer) topLevel(from, to time.Time) time.Duration {
	lo, hi := from.Sub(t.epoch).Nanoseconds(), to.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Parent == -1 && s.End >= 0 && s.Start >= lo && s.Start < hi {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// tracedServer serves the workload in-process. GET /request and the
// submitting calls alternate between two routes: through the server's
// HTTP handler (span httpapi.<kind>), and straight into the public Go API
// (span direct.<kind>, holding registry.get, registry.wake or
// registry.create around the registry call, then core.<kind> around the
// docs.System call). The two routes do the same work, so the handler's own
// time is the difference of their medians, taken over calls to resident
// campaigns only: a wake inside either route would swamp it. Publish
// always takes the direct route, every other call the handler.
type tracedServer struct {
	srv *httpapi.Server
	h   http.Handler
	tr  *tracer

	mu        sync.Mutex
	turns     map[string]int       // calls so far per kind, for alternation
	viaHTTP   map[string][]float64 // handler-route times per kind, µs, resident campaigns
	direct    map[string][]float64 // direct-route times per kind, µs, resident campaigns
	openTasks []float64            // Stats.OpenTasks after each direct request
}

func newTracedServer(cfg docs.Config, tr *tracer) (*tracedServer, error) {
	srv, err := httpapi.New(cfg, httpapi.Options{})
	if err != nil {
		return nil, err
	}
	return &tracedServer{
		srv: srv, h: srv.Handler(), tr: tr,
		turns: map[string]int{}, viaHTTP: map[string][]float64{}, direct: map[string][]float64{},
	}, nil
}

// kindOf names a campaign call by its last path segment; both submitting
// routes are "submit".
func kindOf(path string) (campaign, kind string) {
	p, _, _ := strings.Cut(path, "?")
	parts := strings.Split(strings.TrimPrefix(p, "/c/"), "/")
	if len(parts) != 2 {
		return "", p
	}
	kind = parts[1]
	if kind == "submit-batch" {
		kind = "submit"
	}
	return parts[0], kind
}

func (s *tracedServer) transport() transport {
	return func(method, path string, body []byte) (int, []byte, error) {
		campaign, kind := kindOf(path)
		s.mu.Lock()
		turn := s.turns[kind]
		s.turns[kind]++
		s.mu.Unlock()
		direct := kind == "publish" || ((kind == "request" || kind == "submit") && turn%2 == 1)
		reg := s.srv.Registry()
		resident := reg.CampaignResident(campaign)
		if !direct {
			var code int
			var out []byte
			d, _ := s.tr.timed("httpapi."+kind, func() error {
				code, out, _ = handlerTransport(s.h)(method, path, body)
				return nil
			})
			if resident {
				s.note(s.viaHTTP, kind, d)
			}
			return code, out, nil
		}
		op := s.tr.newOp()
		top := s.tr.begin("direct."+kind, -1, op)
		defer s.tr.end(top)
		name := "registry.get"
		switch {
		case kind == "publish":
			name = "registry.create"
		case !resident:
			name = "registry.wake"
		}
		i := s.tr.begin(name, top, op)
		var sys *docs.System
		var err error
		if kind == "publish" {
			sys, err = reg.Create(campaign)
		} else {
			sys, err = reg.Campaign(campaign)
		}
		lookup := s.tr.end(i)
		if err != nil {
			return http.StatusNotFound, nil, nil
		}
		resp, call, err := s.callDirect(sys, kind, path, body, top, op)
		if err != nil {
			blob, _ := json.Marshal(map[string]string{"error": err.Error()})
			return http.StatusBadRequest, blob, nil
		}
		if resident {
			s.note(s.direct, kind, lookup+call)
		}
		blob, err := json.Marshal(resp)
		return http.StatusOK, blob, err
	}
}

func (s *tracedServer) note(into map[string][]float64, kind string, d time.Duration) {
	s.mu.Lock()
	into[kind] = append(into[kind], float64(d)/float64(time.Microsecond))
	s.mu.Unlock()
}

// callDirect makes the docs.System call a handler would make, inside a
// core.<kind> span, and returns the response the handler would encode.
func (s *tracedServer) callDirect(sys *docs.System, kind, path string, body []byte, parent int, op int64) (any, time.Duration, error) {
	var err error
	switch kind {
	case "publish":
		var req struct {
			Tasks []taskJSON `json:"tasks"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, 0, err
		}
		tasks := make([]docs.Task, len(req.Tasks))
		for i, t := range req.Tasks {
			tasks[i] = docs.Task{ID: t.ID, Text: t.Text, Choices: t.Choices, GoldenTruth: t.GoldenTruth}
		}
		i := s.tr.begin("core.publish", parent, op)
		err = sys.Publish(tasks)
		d := s.tr.end(i)
		return map[string]any{"published": len(tasks), "golden": sys.GoldenTaskIDs()}, d, err
	case "request":
		u, perr := url.Parse(path)
		if perr != nil {
			return nil, 0, perr
		}
		k, _ := strconv.Atoi(u.Query().Get("k"))
		i := s.tr.begin("core.request", parent, op)
		tasks, err := sys.Request(u.Query().Get("worker"), k)
		d := s.tr.end(i)
		out := make([]taskJSON, len(tasks))
		for j, t := range tasks {
			out[j] = taskJSON{ID: t.ID, Text: t.Text, Choices: t.Choices, GoldenTruth: docs.NoTruth}
		}
		s.mu.Lock()
		s.openTasks = append(s.openTasks, float64(sys.Stats().OpenTasks))
		s.mu.Unlock()
		return map[string]any{"tasks": out}, d, err
	case "submit":
		if strings.Contains(path, "submit-batch") {
			var req struct {
				Answers []answerJSON `json:"answers"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, 0, err
			}
			answers := make([]docs.Answer, len(req.Answers))
			for j, a := range req.Answers {
				answers[j] = docs.Answer{Worker: a.Worker, TaskID: a.Task, Choice: a.Choice}
			}
			i := s.tr.begin("core.submit", parent, op)
			sts, err := sys.SubmitBatch(answers)
			d := s.tr.end(i)
			accepted := 0
			for _, st := range sts {
				if st.OK {
					accepted++
				}
			}
			return map[string]int{"accepted": accepted, "rejected": len(sts) - accepted}, d, err
		}
		var a answerJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, 0, err
		}
		i := s.tr.begin("core.submit", parent, op)
		err = sys.Submit(a.Worker, a.Task, a.Choice)
		d := s.tr.end(i)
		return map[string]string{"status": "accepted"}, d, err
	}
	return nil, 0, fmt.Errorf("no direct route for %s", kind)
}

// runTraced drives the workload in-process with spans around every layer
// call, then times the lower layers on inputs captured from the run.
func runTraced(p *plan, dir, spansPath string, rep *report) (checkErr, err error) {
	tr := newTracer()
	data := filepath.Join(dir, "data")
	ts, err := newTracedServer(p.server.docsConfig(data), tr)
	if err != nil {
		return nil, err
	}
	defer ts.srv.Close()
	apis := make([]*api, len(p.clients))
	for i := range apis {
		apis[i] = newAPI(ts.transport())
	}
	d := newRunner(p, apis)
	if err := d.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	start := time.Now()
	elapsed, err := d.serve()
	if err != nil {
		return err, nil
	}
	covered := tr.topLevel(start, start.Add(elapsed))
	var records func() (map[string]string, error)
	if p.resultsTwice {
		records = func() (map[string]string, error) { return storeRecords(data, filepath.Join(dir, "store-copy")) }
	}
	out, err := d.finish(records)
	if err != nil {
		return err, nil
	}
	if err := d.checkEnd(out); err != nil {
		return err, nil
	}
	rep.Attempted, rep.Failed = d.attempted(), out.storeChanged

	self := func(kind string) float64 { return median(ts.viaHTTP[kind]) - median(ts.direct[kind]) }
	rep.set("httpapi.self_us.request", "us", self("request"))
	rep.set("httpapi.self_us.submit", "us", self("submit"))
	rep.set("registry.get_us", "us", median(tr.durations("registry.get", time.Microsecond)))
	rep.set("core.publish_ms", "ms", sum(tr.durations("core.publish", time.Millisecond)))
	rep.set("core.request_us", "us", median(tr.durations("core.request", time.Microsecond)))
	rep.set("core.submit_us", "us", median(tr.durations("core.submit", time.Microsecond)))
	rep.set("assign.candidates", "count", median(ts.openTasks))
	rep.set("trace.answers_per_s", "answers/s", float64(d.served)/elapsed.Seconds())
	rep.set("trace.coverage", "fraction", covered.Seconds()/(elapsed.Seconds()*float64(len(p.clients))))

	checkErr, err = probeLayers(p, d, ts, data, filepath.Join(dir, "probe"), rep)
	if err != nil || checkErr != nil {
		return checkErr, err
	}
	return nil, tr.write(spansPath)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
