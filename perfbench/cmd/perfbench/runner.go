package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"
)

// campaignState is what the generator knows about one campaign while it
// runs. Only the client that owns the campaign touches it.
type campaignState struct {
	golden   map[int]bool
	answered map[string]map[int]bool // worker → tasks they answered
	votes    map[int][]int           // non-golden task → choices sent
	acked    int64                   // non-golden answers acknowledged
	served   int64                   // answers acknowledged, golden ones included
}

// runner runs a plan's traffic through one api per client. The same
// runner serves the measured HTTP run and the traced in-process run.
type runner struct {
	p      *plan
	apis   []*api
	camps  []*campaignState
	served int64 // answers acknowledged, golden ones included
	// growth is the time the requester spent on /results while the
	// campaigns grew.
	growth time.Duration
}

func newRunner(p *plan, apis []*api) *runner {
	d := &runner{p: p, apis: apis}
	for range p.campaigns {
		d.camps = append(d.camps, &campaignState{
			golden:   map[int]bool{},
			answered: map[string]map[int]bool{},
			votes:    map[int][]int{},
		})
	}
	return d
}

// probeWorker is the worker whose single request closes set-up; it never
// answers, so it leaves no evidence in any campaign.
const probeWorker = "setup-probe"

// setup publishes every campaign from the first client, in order, and
// asks for one task for the probe worker: set-up ends when that request
// has been answered.
func (d *runner) setup() error {
	a := d.apis[0]
	for i, c := range d.p.campaigns {
		golden, err := a.publish(c)
		if err != nil {
			return err
		}
		for _, id := range golden {
			d.camps[i].golden[id] = true
		}
	}
	_, err := a.request(d.p.campaigns[0].name, probeWorker, 1)
	return err
}

// serve runs every client's visits concurrently and returns the serving
// wall time.
func (d *runner) serve() (time.Duration, error) {
	start := time.Now()
	errs := make([]error, len(d.p.clients))
	served := make([]int64, len(d.p.clients))
	growth := make([]time.Duration, len(d.p.clients))
	var wg sync.WaitGroup
	for i, cl := range d.p.clients {
		wg.Add(1)
		go func(i int, cl *clientPlan) {
			defer wg.Done()
			served[i], growth[i], errs[i] = d.runClient(d.apis[i], cl)
		}(i, cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return 0, err
		}
		d.served += served[i]
		d.growth += growth[i]
	}
	return elapsed, nil
}

func (d *runner) runClient(a *api, cl *clientPlan) (served int64, growth time.Duration, err error) {
	for n, v := range cl.visits {
		c, st := d.p.campaigns[v.campaign], d.camps[v.campaign]
		w := v.worker
		var ids []int
		ids, err = a.request(c.name, w.ID, d.p.hit)
		if err != nil {
			return served, growth, err
		}
		if len(ids) != d.p.hit {
			return served, growth, fmt.Errorf("%s: worker %s got %d tasks, want %d", c.name, w.ID, len(ids), d.p.hit)
		}
		done := st.answered[w.ID]
		if done == nil {
			done = map[int]bool{}
			st.answered[w.ID] = done
		}
		if err := checkFresh(w.ID, ids, done); err != nil {
			return served, growth, fmt.Errorf("%s: %w", c.name, err)
		}
		pick := ids
		if d.p.answerEach > 0 && !st.golden[ids[0]] {
			pick = ids[:d.p.answerEach]
		}
		answers := make([]answerJSON, len(pick))
		for i, id := range pick {
			t := c.byID[id]
			if t == nil {
				return served, growth, fmt.Errorf("%s: server served unknown task %d", c.name, id)
			}
			answers[i] = answerJSON{Worker: w.ID, Task: id, Choice: w.Answer(t, cl.rand)}
		}
		if d.p.batch {
			err = a.submitBatch(c.name, answers)
		} else {
			for _, ans := range answers {
				if err = a.submit(c.name, ans); err != nil {
					break
				}
			}
		}
		if err != nil {
			return served, growth, err
		}
		for _, ans := range answers {
			done[ans.Task] = true
			served++
			st.served++
			if !st.golden[ans.Task] {
				st.votes[ans.Task] = append(st.votes[ans.Task], ans.Choice)
				st.acked++
			}
		}
		for i := 0; i < d.p.polls; i++ {
			t := c.tasks[cl.rand.Intn(len(c.tasks))]
			res, err := a.result(c.name, t.ID)
			if err != nil {
				return served, growth, err
			}
			if !st.golden[t.ID] {
				if err := checkConfidence(res, len(t.Choices)); err != nil {
					return served, growth, fmt.Errorf("%s: /result: %w", c.name, err)
				}
			}
		}
		if every := len(cl.visits) / (d.p.growthFetches + 1); d.p.growthFetches > 0 && (n+1)%every == 0 && (n+1)/every <= d.p.growthFetches {
			start := time.Now()
			results, _, err := a.results(c.name)
			growth += time.Since(start)
			if err != nil {
				return served, growth, err
			}
			if _, err := d.score(v.campaign, results); err != nil {
				return served, growth, err
			}
		}
		if d.p.scrape {
			if _, err := a.stats(d.p.campaigns[cl.campaigns[n%len(cl.campaigns)]].name); err != nil {
				return served, growth, err
			}
		}
	}
	return served, growth, nil
}

// outcome is the requester's view of the finished campaigns.
type outcome struct {
	// resultsTime sums, over campaigns, the median time of their final
	// /results fetches, plus the fetches made while the campaigns grew.
	resultsTime time.Duration
	right, all  int
	majority    float64 // majority-vote accuracy over the same tasks
	bodies      [][]byte
	// storeChanged counts second fetches across which the worker store's
	// records changed.
	storeChanged int64
}

// finish fetches every campaign's /results p.fetches times from the first
// client, checks and scores the first fetch, and times them all; the
// result time adds the median of each campaign's fetches to the time of
// the fetches made while the campaigns grew. When
// records is set, it reads the shared worker store before and after each
// campaign's second fetch: /results takes no answers, so a change means
// the fetch was not idempotent.
func (d *runner) finish(records func() (map[string]string, error)) (outcome, error) {
	var out outcome
	a := d.apis[0]
	var mvRight float64
	out.resultsTime = d.growth
	for i, c := range d.p.campaigns {
		var times []float64
		var before map[string]string
		for f := 0; f < d.p.fetches; f++ {
			if f == 1 && records != nil {
				var err error
				if before, err = records(); err != nil {
					return out, err
				}
			}
			start := time.Now()
			results, raw, err := a.results(c.name)
			times = append(times, float64(time.Since(start)))
			if err != nil {
				return out, err
			}
			if f == 1 && records != nil {
				after, err := records()
				if err != nil {
					return out, err
				}
				if !reflect.DeepEqual(before, after) {
					out.storeChanged++
				}
			}
			if f > 0 {
				continue
			}
			right, err := d.score(i, results)
			if err != nil {
				return out, err
			}
			ids, expect := d.regular(i)
			out.right += right
			out.all += len(ids)
			mvRight += majorityAccuracy(ids, d.camps[i].votes, expect) * float64(len(ids))
			out.bodies = append(out.bodies, raw)
		}
		out.resultsTime += time.Duration(median(times))
	}
	out.majority = mvRight / float64(out.all)
	return out, nil
}

// regular returns a campaign's non-golden task IDs and their truths.
func (d *runner) regular(campaign int) ([]int, map[int]int) {
	var ids []int
	expect := map[int]int{}
	for _, t := range d.p.campaigns[campaign].tasks {
		if !d.camps[campaign].golden[t.ID] {
			ids = append(ids, t.ID)
			expect[t.ID] = t.Truth
		}
	}
	return ids, expect
}

// score checks a campaign's /results outcomes and counts the right ones.
func (d *runner) score(campaign int, results []taskResult) (int, error) {
	c := d.p.campaigns[campaign]
	_, expect := d.regular(campaign)
	choices := make(map[int]int, len(expect))
	for id := range expect {
		choices[id] = len(c.byID[id].Choices)
	}
	right, err := scoreResults(results, expect, choices)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.name, err)
	}
	return right, nil
}

// accuracy is the share of published non-golden tasks inferred right.
func (o outcome) accuracy() float64 { return float64(o.right) / float64(o.all) }

// checkCaps verifies the redundancy cap over the answers the generator
// had acknowledged.
func (d *runner) checkCaps() error {
	for i, st := range d.camps {
		counts := map[int]int{}
		for id, v := range st.votes {
			counts[id] = len(v)
		}
		if err := checkRedundancy(counts, d.p.server.redundancy); err != nil {
			return fmt.Errorf("%s: %w", d.p.campaigns[i].name, err)
		}
	}
	return nil
}
