// Command perfbench is the end-to-end benchmark of docs-server. It runs
// the server as a separate process over a fresh data directory, drives one
// workload (grow, fleet or browse) over loopback HTTP with closed-loop
// clients, checks the outputs, and prints one JSON line of metrics. With
// -trace 1 it instead drives the same workload in-process through the
// public Go API and reports per-layer timings. See perfbench/README.md.
//
// Usage (normally through perfbench/run.sh, which builds both binaries):
//
//	perfbench -server bin/docs-server -workdir dir -workload grow -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "grow, fleet or browse")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same generated inputs")
	seconds := flag.Int("seconds", 30, "nominal run length; every workload does a fixed amount of work instead, sized to about this long")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics over HTTP, 1 = per-layer metrics from an in-process traced run")
	server := flag.String("server", "", "docs-server binary")
	workdir := flag.String("workdir", "", "scratch directory for server data (emptied per run)")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *server, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, server, workdir string) error {
	if seconds < 1 || seconds > 600 {
		return fmt.Errorf("-seconds %d out of range [1,600]", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if workdir == "" {
		return fmt.Errorf("-workdir is required")
	}
	p, err := buildPlan(workload, seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(workdir, workload+"-"+strconv.FormatUint(seed, 10)+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := &report{Metrics: map[string]metric{}}
	var checkErr error
	if trace == 1 {
		checkErr, err = runTraced(p, dir, filepath.Join(workdir, "spans-"+workload+"-"+strconv.FormatUint(seed, 10)+".json"), rep)
	} else {
		if server == "" {
			return fmt.Errorf("-server is required")
		}
		checkErr, err = runHTTP(p, server, dir, rep)
	}
	if err != nil {
		return err
	}
	rep.Correct = checkErr == nil
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", checkErr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if checkErr != nil {
		os.Exit(1)
	}
	return nil
}
