package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"docs/internal/kb"
	"docs/internal/store"
)

// setupRepeats is how many times a run sets the server up from scratch;
// setup_s is their median. Only the last set-up goes on to serve.
const setupRepeats = 5

// runHTTP is the measured run: set-up, serving, the requester's final
// /results, SIGKILL, and a restart on the same directory. It returns the
// first failed output check, or an error when the run could not finish.
func runHTTP(p *plan, bin, dir string, rep *report) (checkErr, err error) {
	logPath := filepath.Join(dir, "server.log")
	var (
		srv    *serverProc
		d      *runner
		setups []float64
		calls  int64
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	var data string
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if _, err := srv.kill(); err != nil {
				return nil, err
			}
			calls += d.attempted()
			if err := os.RemoveAll(data); err != nil {
				return nil, err
			}
		}
		data = filepath.Join(dir, fmt.Sprintf("data%d", i))
		if srv, err = startServer(bin, data, logPath, p.server.flags()); err != nil {
			return nil, err
		}
		d = newRunner(p, newAPIs(srv.base, len(p.clients)))
		if err := d.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(srv.started).Seconds())
	}
	for _, a := range d.apis {
		a.lat = map[string][]float64{}
	}

	elapsed, err := d.serve()
	if err != nil {
		return err, nil
	}
	disk, err := dirBytes(data)
	if err != nil {
		return nil, err
	}
	var records func() (map[string]string, error)
	if p.resultsTwice {
		records = func() (map[string]string, error) { return storeRecords(data, filepath.Join(dir, "store-copy")) }
	}
	out, err := d.finish(records)
	if err != nil {
		return err, nil
	}

	// Each reboot kills the server and starts a new one on the same
	// directory; reboot_s is their median. The first kill ends the serving
	// process, whose resource usage the CPU and memory metrics report.
	var (
		reboots []float64
		use     usage
		re      *api
	)
	for r := 0; r < p.reboots; r++ {
		killAt := time.Now()
		u, err := srv.kill()
		if err != nil {
			return nil, err
		}
		if r == 0 {
			use = u
			calls += d.attempted()
		} else {
			calls += re.attempted
		}
		if srv, err = startServer(bin, data, logPath, p.server.flags()); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		re = newAPIs(srv.base, 1)[0]
		for i, c := range p.campaigns {
			id := firstRegular(c, d.camps[i])
			res, err := re.result(c.name, id)
			if err != nil {
				return err, nil
			}
			if err := checkConfidence(res, len(c.byID[id].Choices)); err != nil {
				return fmt.Errorf("%s after restart: %w", c.name, err), nil
			}
		}
		reboots = append(reboots, time.Since(killAt).Seconds())
	}
	for i, c := range p.campaigns {
		st, err := re.stats(c.name)
		if err != nil {
			return err, nil
		}
		if err := checkAcked(c.name, st.Answers, d.camps[i].acked); err != nil {
			return err, nil
		}
		_, body, err := re.results(c.name)
		if err != nil {
			return err, nil
		}
		if err := checkSameBytes(c.name, out.bodies[i], body); err != nil {
			return err, nil
		}
	}
	calls += re.attempted
	if _, err := srv.kill(); err != nil {
		return nil, err
	}

	served := float64(d.served)
	req, sub := d.latencies("request"), d.latencies("submit")
	subTail, err := tail(sub, p.submitTail)
	if err != nil {
		return nil, fmt.Errorf("submit tail: %w", err)
	}
	rep.Attempted, rep.Failed = calls, out.storeChanged
	rep.set("setup_s", "s", median(setups))
	rep.set("answers_per_s", "answers/s", served/elapsed.Seconds())
	rep.set("request_p50_ms", "ms", median(req))
	rep.set("submit_p50_ms", "ms", median(sub))
	rep.set("submit_tail_ms", "ms", subTail)
	rep.set("results_s", "s", out.resultsTime.Seconds())
	rep.set("reboot_s", "s", median(reboots))
	rep.set("accuracy", "fraction", out.accuracy())
	rep.set("cpu_ms_per_answer", "ms/answer", float64(use.cpu)/float64(time.Millisecond)/served)
	rep.set("rss_peak_mib", "MiB", float64(use.peakRSS)/(1<<20))
	rep.set("disk_bytes_per_answer", "B/answer", float64(disk)/served)
	fmt.Fprintf(os.Stderr, "perfbench: %d answers in %.2fs serving, %d requests, %d submits (submit tail p%.2f), accuracy %.4f (majority vote %.4f)\n",
		d.served, elapsed.Seconds(), len(req), len(sub), float64(p.submitTail)/100, out.accuracy(), out.majority)
	return d.checkEnd(out), nil
}

func newAPIs(base string, n int) []*api {
	out := make([]*api, n)
	for i := range out {
		out[i] = newAPI(httpTransport(base))
	}
	return out
}

// attempted sums the operations every client has attempted.
func (d *runner) attempted() int64 {
	var n int64
	for _, a := range d.apis {
		n += a.attempted
	}
	return n
}

// latencies merges every client's samples of one kind.
func (d *runner) latencies(kind string) []float64 {
	var out []float64
	for _, a := range d.apis {
		out = append(out, a.lat[kind]...)
	}
	return out
}

// checkEnd runs the checks that need the whole campaign.
func (d *runner) checkEnd(out outcome) error {
	if err := d.checkCaps(); err != nil {
		return err
	}
	if d.p.majority && out.accuracy() < out.majority {
		return fmt.Errorf("accuracy %.4f is below majority vote's %.4f", out.accuracy(), out.majority)
	}
	return nil
}

// firstRegular returns the campaign's first non-golden task.
func firstRegular(c *campaignPlan, st *campaignState) int {
	for _, t := range c.tasks {
		if !st.golden[t.ID] {
			return t.ID
		}
	}
	return c.tasks[0].ID
}

// storeRecords copies the server's worker store out of its data directory
// and returns every worker's record as JSON.
func storeRecords(data, scratch string) (map[string]string, error) {
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}
	if err := copyFiles(data, scratch, "store.json", "store.json.delta"); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(scratch, "store.json"), kb.MustDefault().Domains().Size())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out := map[string]string{}
	for _, w := range st.Workers() {
		rec, ok := st.Worker(w)
		if !ok {
			return nil, errors.New("store lists a worker it cannot read")
		}
		blob, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		out[w] = string(blob)
	}
	return out, nil
}
