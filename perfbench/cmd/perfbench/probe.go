package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"docs/internal/assign"
	"docs/internal/core"
	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// probeSamples bounds how many campaigns the snapshot and hibernation
// probes visit.
const probeSamples = 32

// probeLayers times the lower layers on inputs captured from the traced
// run: the campaign with the most answers is copied as a kill would leave
// it, recovered with core.System.Recover, and its log, tasks and worker
// store feed truth, assign, wal, snapshot and store calls. It also
// hibernates and wakes resident campaigns and reads their snapshots.
func probeLayers(p *plan, d *runner, ts *tracedServer, data, scratch string, rep *report) (checkErr, err error) {
	tr, reg := ts.tr, ts.srv.Registry()
	m := kb.MustDefault().Domains().Size()
	big := 0
	for i, st := range d.camps {
		if st.served > d.camps[big].served {
			big = i
		}
	}
	name := p.campaigns[big].name
	camp := filepath.Join(scratch, "campaign")
	if err := copyDir(filepath.Join(data, "campaigns", name), camp); err != nil {
		return nil, err
	}
	if err := copyFiles(data, scratch, "store.json", "store.json.delta"); err != nil {
		return nil, err
	}
	walBytes, err := logBytes(camp)
	if err != nil {
		return nil, err
	}
	rep.set("wal.bytes_per_answer", "B/answer", float64(walBytes)/float64(d.camps[big].served))

	wakes, _, _ := reg.WakeStats()
	rep.set("registry.wakes", "count", float64(wakes))
	sys, err := reg.Campaign(name)
	if err != nil {
		return nil, err
	}
	rep.set("core.reruns", "count", float64(sys.Stats().RerunsCompleted))
	var resident []string
	for _, c := range p.campaigns {
		if reg.CampaignResident(c.name) && len(resident) < probeSamples {
			resident = append(resident, c.name)
		}
	}
	var hib []float64
	for _, n := range resident {
		dur, err := tr.timed("registry.hibernate", func() error { return reg.Hibernate(n) })
		if err != nil {
			return nil, err
		}
		hib = append(hib, ms(dur))
	}
	var reads, sizes []float64
	for i, c := range p.campaigns {
		if i >= probeSamples {
			break
		}
		cdir := filepath.Join(data, "campaigns", c.name)
		dur, err := tr.timed("snapshot.read", func() error { _, err := snapshot.Read(cdir); return err })
		if err != nil {
			return nil, fmt.Errorf("snapshot of %s: %w", c.name, err)
		}
		info, err := os.Stat(filepath.Join(cdir, snapshot.FileName))
		if err != nil {
			return nil, err
		}
		reads, sizes = append(reads, ms(dur)), append(sizes, float64(info.Size()))
	}
	for _, n := range resident {
		op := tr.newOp()
		i := tr.begin("registry.wake", -1, op)
		_, err := reg.Campaign(n)
		tr.end(i)
		if err != nil {
			return nil, err
		}
	}
	rep.set("registry.hibernate_ms", "ms", median(hib))
	rep.set("registry.wake_ms", "ms", median(tr.durations("registry.wake", time.Millisecond)))
	rep.set("snapshot.read_ms", "ms", median(reads))
	rep.set("snapshot.bytes", "B", median(sizes))

	// The WAL records as the killed server left them, before recovery
	// touches the copy.
	var recs []wal.Record
	cp, err := wal.ReadCheckpoint(camp)
	if err != nil {
		return nil, err
	}
	var after uint64
	if cp != nil {
		recs, after = append(recs, cp.Records...), cp.LastSeq
	}
	if _, err := wal.ReplayFrom(camp, after, func(r wal.Record) error { recs = append(recs, r); return nil }); err != nil {
		return nil, err
	}

	st, err := store.Open(filepath.Join(scratch, "store.json"), m)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	cs, err := core.New(core.Config{
		KB:             kb.MustDefault(),
		Store:          st,
		ProfileScope:   name,
		GoldenCount:    p.server.golden,
		HITSize:        p.server.hit,
		AnswersPerTask: p.server.redundancy,
	})
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	var info core.RecoveryInfo
	dur, err := tr.timed("core.recover", func() error { info, err = cs.Recover(camp); return err })
	if err != nil {
		return nil, err
	}
	rep.set("core.recover_s", "s", dur.Seconds())
	rep.set("core.replayed_records", "count", float64(info.Records))
	if got := cs.AnswerCount(); got != d.camps[big].acked {
		return checkAcked(name, got, d.camps[big].acked), nil
	}

	var copies []float64
	var answers *model.AnswerSet
	for i := 0; i < 5; i++ {
		dur, _ := tr.timed("core.log_copy", func() error { answers = cs.Answers(); return nil })
		copies = append(copies, ms(dur))
	}
	rep.set("core.log_copy_ms", "ms", median(copies))

	tasks := cs.InferTasks()
	var res *truth.Result
	full, err := tr.timed("truth.infer", func() error { res, err = truth.Infer(tasks, answers, m, truth.Options{}); return err })
	if err != nil {
		return nil, err
	}
	quarter := model.NewAnswerSet()
	for _, a := range answers.All()[:answers.Len()/4] {
		if err := quarter.Add(a); err != nil {
			return nil, err
		}
	}
	part, err := tr.timed("truth.infer", func() error { _, err := truth.Infer(tasks, quarter, m, truth.Options{}); return err })
	if err != nil {
		return nil, err
	}
	rep.set("truth.infer_ms", "ms", ms(full))
	rep.set("truth.infer_growth", "ratio", full.Seconds()/part.Seconds())
	rep.set("truth.em_iterations", "count", float64(res.Iterations))

	inc := truth.NewIncremental(m)
	for _, t := range tasks {
		if err := inc.AddTask(t); err != nil {
			return nil, err
		}
	}
	for _, a := range answers.All() {
		if _, err := tr.timed("truth.incremental", func() error { return inc.Submit(a) }); err != nil {
			return nil, err
		}
	}
	rep.set("truth.incremental_us", "us", median(tr.durations("truth.incremental", time.Microsecond)))

	cands := make([]*assign.TaskState, len(tasks))
	for i, t := range tasks {
		cands[i] = &assign.TaskState{ID: t.ID, R: t.Domain, M: inc.M(t.ID), S: inc.S(t.ID)}
	}
	q := cs.WorkerQuality(answers.All()[0].Worker)
	for i := 0; i < 21; i++ {
		tr.timed("assign.topk", func() error { assign.Assign(cands, q, p.hit, nil); return nil })
	}
	rep.set("assign.topk_us", "us", median(tr.durations("assign.topk", time.Microsecond)))

	dur, err = tr.timed("snapshot.write", cs.WriteSnapshot)
	if err != nil {
		return nil, err
	}
	rep.set("snapshot.write_ms", "ms", ms(dur))

	if err := probeWAL(tr, recs, filepath.Join(scratch, "wal")); err != nil {
		return nil, err
	}
	rep.set("wal.append_us", "us", median(tr.durations("wal.append", time.Microsecond)))
	rep.set("wal.sync_ms", "ms", median(tr.durations("wal.sync", time.Millisecond)))

	for _, w := range st.Workers() {
		rec, _ := st.Worker(w)
		if _, err := tr.timed("store.merge", func() error { return st.Merge(w, rec) }); err != nil {
			return nil, err
		}
	}
	dur, err = tr.timed("store.save", st.Save)
	if err != nil {
		return nil, err
	}
	rep.set("store.merge_us", "us", median(tr.durations("store.merge", time.Microsecond)))
	rep.set("store.save_ms", "ms", ms(dur))
	return nil, nil
}

// walSyncEvery is how many appends the WAL probe makes between syncs.
const walSyncEvery = 16

// probeWAL appends the captured records to a fresh log on the same
// filesystem, with the server's flush policy, syncing every walSyncEvery
// records.
func probeWAL(tr *tracer, recs []wal.Record, dir string) error {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	for i, r := range recs {
		r.Seq = 0
		if _, err := tr.timed("wal.append", func() error { _, err := l.Append(r); return err }); err != nil {
			l.Close()
			return err
		}
		if (i+1)%walSyncEvery == 0 {
			if _, err := tr.timed("wal.sync", l.Sync); err != nil {
				l.Close()
				return err
			}
		}
	}
	return l.Close()
}

// logBytes sums a campaign directory's WAL segment and checkpoint bytes.
func logBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") || e.Name() == "checkpoint" {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
	}
	return n, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
