package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"tlssync"
	"tlssync/internal/jobs"
	"tlssync/internal/journal"
	"tlssync/internal/report"
	"tlssync/internal/resilience"
	"tlssync/internal/sim"
	"tlssync/internal/store"
)

// The replays below repeat a daemon workload's work in-process through
// the same public calls tlsd makes, with a span around each call. That
// gives every layer a time without tracing inside the program. A nil
// recorder runs the identical path untraced, which is how the tracing
// overhead is measured.

// tlsdStoreCap is tlsd's default in-memory store capacity (-cache).
const tlsdStoreCap = 512

// serving is the state of one replayed tlsd: its store, journal, job
// engine, admission gate and prepared runs.
type serving struct {
	rec  *recorder
	st   *store.Store
	jnl  *journal.Journal
	eng  *jobs.Engine
	gate *resilience.Gate

	mu   sync.Mutex
	runs map[string]*tlssync.Run
	seen map[string]bool // keys read or written since open: in memory

	putSpan string // store.put, or store.put_durable when puts reach disk
}

// openServing opens a store and journal over dir/cache exactly as tlsd
// does at start, with spans around both opens; with dir "" the store is
// memory-only and there is no journal, as in tlsd without -cachedir.
func openServing(rec *recorder, dir string) (*serving, error) {
	s := &serving{rec: rec, eng: jobs.New(engineJ), runs: make(map[string]*tlssync.Run), seen: make(map[string]bool), putSpan: "store.put"}
	s.gate = resilience.NewGate(2*s.eng.Workers(), 64) // tlsd's default gate
	cache := ""
	if dir != "" {
		cache = filepath.Join(dir, "cache")
		s.putSpan = "store.put_durable"
	}
	var err error
	rec.timed("store.open", -1, func(int) { s.st, err = store.New(tlsdStoreCap, cache) })
	if err != nil || cache == "" {
		return s, err
	}
	rec.timed("journal.open", -1, func(int) { s.jnl, err = journal.Open(filepath.Join(cache, "journal"), nil) })
	return s, err
}

func (s *serving) close() {
	if s.jnl != nil {
		s.jnl.Close()
	}
}

// counts reads the replay's layer counters, for the replay check.
func (s *serving) counts() counts {
	st, es := s.st.Stats(), s.eng.Stats()
	c := counts{
		StoreHits: st.Hits, StoreMisses: st.Misses, StorePuts: st.Puts, StoreDiskHits: st.DiskHits,
		JobsSubmitted: es.Submitted, JobsCoalesced: es.Coalesced,
		Shed: s.gate.Stats().Shed,
	}
	if s.jnl != nil {
		c.JournalAppends = s.jnl.Stats().Appends
	}
	return c
}

// journaled runs a journal call inside a span; like tlsd, a serving
// state without a journal makes no journal call at all.
func (s *serving) journaled(name string, parent int, fn func(*journal.Journal)) {
	if s.jnl != nil {
		s.rec.timed(name, parent, func(int) { fn(s.jnl) })
	}
}

// get is a store read, its span named by where the answer came from. A
// key read or written since open is in memory (no plan holds more
// artifacts than the store's capacity); the first read of any other key
// is told apart by the store's disk-hit counter, so that read is exact
// only when no other read of the same key runs concurrently.
func (s *serving) get(parent int, key string) ([]byte, bool) {
	if s.rec == nil {
		return s.st.Get(key)
	}
	s.mu.Lock()
	seen := s.seen[key]
	s.mu.Unlock()
	var before int64
	if !seen {
		before = s.st.Stats().DiskHits
	}
	id := s.rec.begin("store.get", parent)
	v, ok := s.st.Get(key)
	name := "store.get_miss"
	switch {
	case ok && (seen || s.st.Stats().DiskHits == before):
		name = "store.get_mem"
	case ok:
		name = "store.get_disk"
	}
	s.rec.endAs(id, name)
	if ok && !seen {
		s.mu.Lock()
		s.seen[key] = true
		s.mu.Unlock()
	}
	return v, ok
}

// put is a store write that leaves the key in memory.
func (s *serving) put(parent int, key string, data []byte) {
	s.rec.timed(s.putSpan, parent, func(int) { s.st.Put(key, data) })
	s.mu.Lock()
	s.seen[key] = true
	s.mu.Unlock()
}

// coldSimulate is tlsd's cold /simulate path: store miss, admission,
// prepare on first touch (coalesced on the engine), a journaled begin,
// the simulate job — which stores the artifact and commits the intent
// inside — then the handler's own commit and store put.
func (s *serving) coldSimulate(ctx context.Context, parent int, w *tlssync.Workload, policy string) error {
	rec := s.rec
	req := rec.begin("request", parent)
	defer rec.end(req)
	akey := tlssync.WorkloadArtifactKey("simulate", w, policy)
	if _, ok := s.get(req, akey); ok {
		return fmt.Errorf("%s/%s: cold request found an artifact", w.Name, policy)
	}
	var release func()
	var err error
	rec.timed("resilience.acquire", req, func(int) { release, err = s.gate.Acquire(ctx) })
	if err != nil {
		return err
	}
	defer release()

	s.mu.Lock()
	run := s.runs[w.Name]
	s.mu.Unlock()
	if run == nil {
		do := rec.begin("jobs.do", req)
		v, err := s.eng.Do(ctx, "prepare/"+w.Name, func(context.Context) (v any, err error) {
			rec.timed("jobs.run", do, func(int) {
				var r *tlssync.Run
				if r, err = tlssync.NewRunWithWorkers(w, 1); err == nil {
					s.mu.Lock()
					s.runs[w.Name] = r
					s.mu.Unlock()
					v = r
				}
			})
			return v, err
		})
		rec.end(do)
		if err != nil {
			return err
		}
		run = v.(*tlssync.Run)
	}

	sp := run.LabelSpec(policy)
	jkey := sp.Key()
	s.journaled("journal.begin", req, func(j *journal.Journal) {
		j.Begin(journal.Record{Key: jkey, Kind: "simulate", Bench: w.Name, Label: policy})
	})
	do := rec.begin("jobs.do", req)
	v, err := s.eng.Do(ctx, jkey, func(context.Context) (v any, err error) {
		rec.timed("jobs.run", do, func(id int) {
			var res *sim.Result
			rec.timed("tlssync.simulate", id, func(int) { res, err = run.SimulateSpec(sp) })
			if err != nil {
				return
			}
			var data []byte
			if data, err = payload(run, policy, res); err != nil {
				return
			}
			s.put(id, akey, data)
			s.journaled("journal.commit", id, func(j *journal.Journal) { j.Commit(jkey) })
			v = res
		})
		return v, err
	})
	rec.end(do)
	if err != nil {
		return err
	}
	s.journaled("journal.commit_again", req, func(j *journal.Journal) { j.Commit(jkey) })
	data, err := payload(run, policy, v.(*sim.Result))
	if err != nil {
		return err
	}
	s.put(req, akey, data)
	return nil
}

// simArtifact is the artifact tlsd stores and serves for a simulation
// (its simPayload), field for field and tag for tag, so the replay
// stores the bytes tlsd stores. The traced explore run holds every
// replayed artifact equal to the daemon's answer for the same key.
type simArtifact struct {
	Bench          string                  `json:"bench"`
	Policy         string                  `json:"policy"`
	Bar            report.BarJSON          `json:"bar"`
	RegionSpeedup  float64                 `json:"region_speedup"`
	ProgramSpeedup float64                 `json:"program_speedup"`
	Coverage       float64                 `json:"coverage"`
	Violations     int64                   `json:"violations"`
	Restarts       int64                   `json:"restarts"`
	RegionCycles   int64                   `json:"region_cycles"`
	SeqCycles      int64                   `json:"seq_cycles"`
	Verify         map[string]verifyCounts `json:"verify,omitempty"`
}

type verifyCounts struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
}

// payload marshals a simulation's artifact as tlsd does.
func payload(run *tlssync.Run, policy string, res *sim.Result) ([]byte, error) {
	a := simArtifact{
		Bench:          run.W.Name,
		Policy:         policy,
		Bar:            report.RowsJSON([]report.Row{{Bars: []report.Bar{run.Bar(policy, res)}}})[0].Bars[0],
		RegionSpeedup:  run.RegionSpeedup(res),
		ProgramSpeedup: run.ProgramSpeedup(res),
		Coverage:       run.Coverage(),
		Violations:     res.Violations,
		Restarts:       res.Restarts,
		RegionCycles:   res.RegionCycles(),
		SeqCycles:      res.SeqCycles,
	}
	if reps := run.Build.VerifyReports; reps != nil {
		a.Verify = make(map[string]verifyCounts, len(reps))
		for name, rep := range reps {
			a.Verify[name] = verifyCounts{Errors: len(rep.Errors()), Warnings: len(rep.Warnings())}
		}
	}
	return store.Marshal(a)
}

// sameArtifact reports whether a daemon answer carries exactly the
// artifact bytes the replay stored, up to the answer's indentation.
func sameArtifact(answer, stored []byte) bool {
	var a struct {
		Result json.RawMessage `json:"result"`
	}
	var x, y bytes.Buffer
	return json.Unmarshal(answer, &a) == nil &&
		json.Compact(&x, a.Result) == nil && json.Compact(&y, stored) == nil &&
		bytes.Equal(x.Bytes(), y.Bytes())
}

// replayExploreRound replays one explore round's plan against a fresh
// serving state over dir ("" for memory-only, as the end-to-end rounds
// run tlsd): the cold requests on one goroutine per client, then every
// warm re-read on one. It returns the replay's counters and the keys
// whose replayed artifact differs from the daemon's answer in bodies.
func replayExploreRound(rec *recorder, dir string, plan explorePlan, bodies map[string][]byte) (counts, []string, error) {
	s, err := openServing(rec, dir)
	if err != nil {
		return counts{}, nil, err
	}
	defer s.close()
	ws := make(map[string]*tlssync.Workload, len(plan.Programs))
	for _, name := range plan.Programs {
		if ws[name], err = tlssync.Benchmark(name); err != nil {
			return counts{}, nil, err
		}
	}
	ctx := context.Background()
	errs := make([]error, len(plan.Clients))
	var wg sync.WaitGroup
	for c, reqs := range plan.Clients {
		wg.Add(1)
		go func(c int, reqs []request) {
			defer wg.Done()
			for _, q := range reqs {
				bench, policy, _ := strings.Cut(q.Key, "/")
				if err := s.coldSimulate(ctx, -1, ws[bench], policy); err != nil {
					errs[c] = err
					return
				}
			}
		}(c, reqs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return counts{}, nil, err
		}
	}
	var differ []string
	for _, q := range plan.requests() {
		bench, policy, _ := strings.Cut(q.Key, "/")
		data, ok := s.get(-1, tlssync.WorkloadArtifactKey("simulate", ws[bench], policy))
		if !ok {
			return counts{}, nil, fmt.Errorf("%s: warm re-read missed", q.Key)
		}
		if !sameArtifact(bodies[q.Key], data) {
			differ = append(differ, q.Key)
		}
	}
	return s.counts(), differ, nil
}

// dashboardStoreKeys are the store keys tlsd reads for the dashboard's
// 144 requests.
func dashboardStoreKeys(keys []request) ([]string, error) {
	paper := tlssync.Benchmarks()
	out := make([]string, len(keys))
	for i, q := range keys {
		kind, rest, _ := strings.Cut(q.Key, "/")
		if kind == "figure" {
			out[i] = tlssync.FigureKey(rest, paper)
			continue
		}
		w, err := tlssync.Benchmark(kind)
		if err != nil {
			return nil, err
		}
		out[i] = tlssync.WorkloadArtifactKey("simulate", w, rest)
	}
	return out, nil
}

// replayDashboardRound opens a copy of the fixture as tlsd does at
// start and replays the round's stream as store reads — all a warm
// /simulate or /figures request does below HTTP. It runs on one
// goroutine, in request order, so memory and disk reads are told apart
// exactly.
func replayDashboardRound(rec *recorder, dir string, fx *dashboardFixture, plan [][]int, storeKeys []string) (counts, error) {
	if err := copyTree(fx.Cache, filepath.Join(dir, "cache")); err != nil {
		return counts{}, err
	}
	s, err := openServing(rec, dir)
	if err != nil {
		return counts{}, err
	}
	defer s.close()
	for i := 0; ; i++ {
		sent := false
		for c := range plan {
			if i < len(plan[c]) {
				sent = true
				if _, ok := s.get(-1, storeKeys[plan[c][i]]); !ok {
					return counts{}, fmt.Errorf("%s: not in the populated store", fx.Keys[plan[c][i]].Key)
				}
			}
		}
		if !sent {
			return s.counts(), nil
		}
	}
}
