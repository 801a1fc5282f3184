package main

import (
	"fmt"
	"strconv"

	"docs"
	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
)

// campaignPlan is one generated campaign: the tasks the requester
// publishes, with the ground truth and labelled domain that only the
// generator knows.
type campaignPlan struct {
	name  string
	tasks []*model.Task
	byID  map[int]*model.Task
	// goldenEvery publishes the golden truth of every n-th task, the pool
	// the server selects golden tasks from.
	goldenEvery int
}

// visitPlan is one worker arriving at one campaign.
type visitPlan struct {
	campaign int
	worker   *crowd.Worker
}

// clientPlan is the traffic of one closed-loop client: its visits in
// order, the campaigns it scrapes and finishes, and the random source its
// simulated workers answer from.
type clientPlan struct {
	visits    []visitPlan
	campaigns []int
	rand      *mathx.Rand
}

// plan is a workload's complete, seed-determined input.
type plan struct {
	campaigns []*campaignPlan
	clients   []*clientPlan
	// server is the docs-server configuration beyond the defaults.
	server serverConfig
	// hit is k, the tasks asked for per request.
	hit int
	// answerEach is how many tasks of a regular HIT the worker answers
	// (0 = all); golden HITs are always answered in full.
	answerEach int
	// polls is how many GET /result calls the requester makes per visit.
	polls int
	// scrape makes the operator GET /stats of the client's next campaign,
	// round-robin, after every visit.
	scrape bool
	// batch submits a HIT as one POST /submit-batch instead of one
	// POST /submit per answer.
	batch bool
	// fetches is how many times the requester fetches each campaign's
	// /results at the end.
	fetches int
	// growthFetches is how many times the requester also fetches
	// /results while the campaign grows, evenly spaced over the visits.
	growthFetches int
	// reboots is how many times the run kills the server and restarts it
	// on the same directory.
	reboots int
	// resultsTwice compares the shared worker store across the second
	// fetch.
	resultsTwice bool
	// majority requires accuracy at least that of majority vote.
	majority bool
	// submitTail is the percentile, in basis points, reported as
	// submit_tail_ms. It leaves at least tailBeyond samples above it at the
	// workload's fixed sample count.
	submitTail int
}

// serverConfig is the part of the docs-server configuration a workload
// sets; zero fields keep the server defaults. The WAL is always on, with
// the default flush policy (no fsync).
type serverConfig struct {
	syncRerun  bool // -sync-rerun
	maxLive    int  // -max-live-campaigns
	golden     int  // -golden
	hit        int  // -hit
	redundancy int  // -redundancy
}

// flags renders the configuration as docs-server flags.
func (c serverConfig) flags() []string {
	var out []string
	if c.syncRerun {
		out = append(out, "-sync-rerun")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-max-live-campaigns", c.maxLive}, {"-golden", c.golden}, {"-hit", c.hit}, {"-redundancy", c.redundancy}} {
		if f.v != 0 {
			out = append(out, f.name, strconv.Itoa(f.v))
		}
	}
	return out
}

// docsConfig is the same configuration as docs-server builds it from the
// flags, over the given data directory.
func (c serverConfig) docsConfig(dir string) docs.Config {
	return docs.Config{
		WALDir:           dir,
		GoldenCount:      c.golden,
		HITSize:          c.hit,
		AnswersPerTask:   c.redundancy,
		AsyncRerun:       !c.syncRerun,
		MaxLiveCampaigns: c.maxLive,
	}
}

// taskPool concatenates copies of the named datasets, copy c generated
// from seed c, renumbers the task IDs from 0, and sets each task's
// domain vector to its labelled domain: simulated workers answer by the
// paper's model from the true domain, while the server sees only the text
// and runs its own domain estimation. It also returns the labelled domains
// the tasks touch.
func taskPool(names []string, copies int) ([]*model.Task, []int, error) {
	m := kb.MustDefault().Domains().Size()
	var out []*model.Task
	relevant := map[int]bool{}
	var domains []int
	for c := 0; c < copies; c++ {
		for _, name := range names {
			ds, err := dataset.ByName(name, uint64(c))
			if err != nil {
				return nil, nil, err
			}
			for _, d := range ds.YahooIndex {
				if !relevant[d] {
					relevant[d] = true
					domains = append(domains, d)
				}
			}
			for _, t := range ds.Tasks {
				dom := make(model.DomainVector, m)
				dom[t.TrueDomain] = 1
				out = append(out, &model.Task{
					ID:         len(out),
					Text:       t.Text,
					Choices:    t.Choices,
					Domain:     dom,
					Truth:      t.Truth,
					TrueDomain: t.TrueDomain,
				})
			}
		}
	}
	return out, domains, nil
}

func newCampaign(name string, tasks []*model.Task, goldenEvery int) *campaignPlan {
	c := &campaignPlan{name: name, tasks: tasks, byID: make(map[int]*model.Task, len(tasks)), goldenEvery: goldenEvery}
	for _, t := range tasks {
		c.byID[t.ID] = t
	}
	return c
}

// population draws n simulated workers whose IDs carry the prefix, so two
// clients' populations never share a worker.
func population(n int, domains []int, seed uint64, prefix string) ([]*crowd.Worker, error) {
	pop, err := crowd.NewPopulation(crowd.Config{
		NumWorkers:      n,
		M:               kb.MustDefault().Domains().Size(),
		RelevantDomains: domains,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	for _, w := range pop.Workers {
		w.ID = prefix + w.ID
	}
	return pop.Workers, nil
}

// arrivals returns n worker arrivals: every worker once, in a random
// order, then uniformly random workers. Each worker's first visit is its
// golden HIT, so the number of golden HITs, and with it every count of
// operations, is the same for every seed.
func arrivals(workers []*crowd.Worker, n int, seed uint64) []*crowd.Worker {
	r := mathx.NewRand(seed)
	out := make([]*crowd.Worker, 0, n)
	for _, i := range r.Perm(len(workers)) {
		out = append(out, workers[i])
	}
	for len(out) < n {
		out = append(out, workers[r.Intn(len(workers))])
	}
	return out[:n]
}

// Workload sizes. Each workload does this fixed amount of work whatever
// the run length: grow's cost per answer rises with the log, so a
// time-bounded run would measure a different campaign on each side.
const (
	growCopies  = 2   // QA copies: 2000 tasks
	growWorkers = 60  // population
	growVisits  = 290 // HITs of 20

	fleetCampaigns = 160 // 80 per client
	fleetTasks     = 40  // tasks per campaign, 10 of them golden
	fleetWorkers   = 24  // per client
	fleetRounds    = 12  // visits per campaign, each by a different worker
	fleetMaxLive   = 16  // -max-live-campaigns, a tenth of the campaigns

	browseCopies  = 10   // QA copies: 10,000 tasks
	browseWorkers = 40   // population
	browseVisits  = 1900 // HITs of 20, two tasks answered each
)

// buildPlan generates a workload's input. Task pools and worker
// populations come from fixed seeds; the run's seed drives everything else:
// arrivals, which workers visit which campaign in which order, every
// simulated answer and the requester's polls. With pools and populations
// drawn per seed, EM convergence, and with it grow's throughput, varied
// so much between seeds that no regression bound could absorb it.
func buildPlan(workload string, seed uint64) (*plan, error) {
	switch workload {
	case "grow":
		return growPlan(seed)
	case "fleet":
		return fleetPlan(seed)
	case "browse":
		return browsePlan(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want grow, fleet or browse)", workload)
}

// growPlan: one campaign of 2000 QA tasks grows from empty, one client,
// one POST /submit per answer, periodic rerun on the submitting request.
func growPlan(seed uint64) (*plan, error) {
	tasks, domains, err := taskPool([]string{"QA"}, growCopies)
	if err != nil {
		return nil, err
	}
	workers, err := population(growWorkers, domains, 0, "")
	if err != nil {
		return nil, err
	}
	cl := &clientPlan{campaigns: []int{0}, rand: mathx.NewRand(seed ^ 0x67726f77)}
	for _, w := range arrivals(workers, growVisits, seed) {
		cl.visits = append(cl.visits, visitPlan{campaign: 0, worker: w})
	}
	return &plan{
		campaigns:     []*campaignPlan{newCampaign("grow", tasks, 10)},
		clients:       []*clientPlan{cl},
		server:        serverConfig{syncRerun: true},
		hit:           20,
		fetches:       7,
		growthFetches: 3,
		reboots:       1,
		resultsTwice:  true,
		majority:      true,
		// p99.5 of 5800 submits leaves 29 beyond it, all of them among
		// the ~45 submits that carry a rerun.
		submitTail: 9950,
	}, nil
}

// fleetPlan: many small campaigns under a residency cap. Two clients work
// on disjoint halves of the campaigns with disjoint populations; every
// campaign is visited by fleetRounds different workers of its client, in
// rounds over the client's campaigns in a fresh random order each round.
func fleetPlan(seed uint64) (*plan, error) {
	pool, domains, err := taskPool([]string{"Item", "4D", "QA", "SFV"}, 4)
	if err != nil {
		return nil, err
	}
	perm := mathx.NewRand(0x666c6565).Perm(len(pool))
	r := mathx.NewRand(seed)
	if len(pool) < fleetCampaigns*fleetTasks {
		return nil, fmt.Errorf("fleet: pool of %d tasks is too small", len(pool))
	}
	// No majority-vote floor on accuracy here: on campaigns this small the
	// server's accuracy fell below majority vote on some seeds.
	p := &plan{
		server:  serverConfig{maxLive: fleetMaxLive, golden: 10, hit: 10, redundancy: 6},
		hit:     10,
		fetches: 1,
		reboots: 3,
		scrape:  true,
		batch:   true,
		// p95 of 1920 batches leaves 96 beyond.
		submitTail: 9500,
	}
	for c := 0; c < fleetCampaigns; c++ {
		tasks := make([]*model.Task, fleetTasks)
		for i := range tasks {
			src := pool[perm[c*fleetTasks+i]]
			t := *src
			t.ID = i
			tasks[i] = &t
		}
		p.campaigns = append(p.campaigns, newCampaign(fmt.Sprintf("f%03d", c), tasks, 2))
	}
	for k, prefix := range []string{"a-", "b-"} {
		workers, err := population(fleetWorkers, domains, uint64(k), prefix)
		if err != nil {
			return nil, err
		}
		cl := &clientPlan{rand: mathx.NewRand(seed ^ uint64(0x6131+k))}
		for c := k; c < fleetCampaigns; c += 2 {
			cl.campaigns = append(cl.campaigns, c)
		}
		// Each campaign's visitors are distinct workers, so every request
		// finds a full HIT of tasks its worker has not answered.
		visitors := make([][]int, len(cl.campaigns))
		for i := range visitors {
			visitors[i] = r.Perm(len(workers))[:fleetRounds]
		}
		for round := 0; round < fleetRounds; round++ {
			for _, i := range r.Perm(len(cl.campaigns)) {
				cl.visits = append(cl.visits, visitPlan{campaign: cl.campaigns[i], worker: workers[visitors[i][round]]})
			}
		}
		p.clients = append(p.clients, cl)
	}
	return p, nil
}

// browsePlan: one campaign of 10,000 open tasks, one client; each worker
// asks for a HIT and answers two of its tasks, and the requester polls
// /result for three tasks per visit.
func browsePlan(seed uint64) (*plan, error) {
	tasks, domains, err := taskPool([]string{"QA"}, browseCopies)
	if err != nil {
		return nil, err
	}
	workers, err := population(browseWorkers, domains, 0, "")
	if err != nil {
		return nil, err
	}
	cl := &clientPlan{campaigns: []int{0}, rand: mathx.NewRand(seed ^ 0x62726f77)}
	for _, w := range arrivals(workers, browseVisits, seed) {
		cl.visits = append(cl.visits, visitPlan{campaign: 0, worker: w})
	}
	return &plan{
		campaigns:  []*campaignPlan{newCampaign("browse", tasks, 10)},
		clients:    []*clientPlan{cl},
		hit:        20,
		fetches:    7,
		reboots:    1,
		answerEach: 2,
		polls:      3,
		// p95 of 4520 submits leaves 226 beyond.
		submitTail: 9500,
	}, nil
}
