package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tlssync"
	"tlssync/internal/report"
)

// testServer builds a server restricted to a small benchmark set so the
// end-to-end tests stay fast (each benchmark compiles in ~300ms).
func testServer(t *testing.T, benches ...string) *server {
	t.Helper()
	// workers: 1 is the harshest setting: any handler path that makes a
	// job wait on another job would deadlock the pool (regression check
	// for the nested-submission deadlock in prepareAll).
	s, err := newServer(config{
		workers:    1,
		storeCap:   64,
		benchmarks: benches,
		logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, s *server, path string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON body %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s := testServer(t, "gzip_comp")
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if string(body["status"]) != `"ok"` {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t, "gzip_comp")
	for path, want := range map[string]int{
		"/simulate":                           http.StatusBadRequest,
		"/simulate?bench=gzip_comp&policy=ZZ": http.StatusBadRequest,
		"/simulate?bench=nonesuch&policy=C":   http.StatusNotFound,
		"/simulate?bench=mcf&policy=C":        http.StatusNotFound, // not in serving set
		"/figures/99":                         http.StatusNotFound,
		"/tables/7":                           http.StatusNotFound,
	} {
		rec, _ := get(t, s, path)
		if rec.Code != want {
			t.Errorf("GET %s: status = %d, want %d", path, rec.Code, want)
		}
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates")
	}
	s := testServer(t, "gzip_comp")

	rec, body := get(t, s, "/simulate?bench=gzip_comp&policy=C")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Tlsd-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}
	var res simPayload
	if err := json.Unmarshal(body["result"], &res); err != nil {
		t.Fatal(err)
	}
	if res.Bench != "gzip_comp" || res.Policy != "C" || res.Bar.Total <= 0 {
		t.Fatalf("payload = %+v", res)
	}

	// Repeat: served from the store, no new jobs.
	jobsBefore := s.eng.Stats().Submitted
	hitsBefore := s.store.Stats().Hits
	rec2, body2 := get(t, s, "/simulate?bench=gzip_comp&policy=C")
	if got := rec2.Header().Get("X-Tlsd-Cache"); got != "hit" {
		t.Fatalf("second request cache = %q, want hit", got)
	}
	if string(body2["result"]) != string(body["result"]) {
		t.Fatal("cached result differs from computed result")
	}
	if got := s.eng.Stats().Submitted; got != jobsBefore {
		t.Fatalf("second request submitted %d new jobs", got-jobsBefore)
	}
	if got := s.store.Stats().Hits; got != hitsBefore+1 {
		t.Fatalf("hit counter did not increment: %d -> %d", hitsBefore, got)
	}
}

// TestSimulateCoalescesWithPrewarm: a /simulate request that joins an
// in-flight prewarm job for the same (benchmark × policy) pair must get
// the shared *sim.Result — regression check for the key collision where
// the two paths submitted the same key with different result types (the
// handler then panicked on its type assertion).
func TestSimulateCoalescesWithPrewarm(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates")
	}
	s := testServer(t, "gzip_comp")
	run, err := s.run(context.Background(), "gzip_comp")
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the engine with exactly the job Prewarm submits for this
	// pair, held open until the handler has joined it.
	sp := run.LabelSpec("C")
	release := make(chan struct{})
	prewarmed := make(chan error, 1)
	go func() {
		_, err := s.eng.Do(context.Background(), sp.Key(), func(context.Context) (any, error) {
			<-release
			return run.SimulateSpec(sp)
		})
		prewarmed <- err
	}()

	type resp struct {
		rec  *httptest.ResponseRecorder
		body map[string]json.RawMessage
	}
	got := make(chan resp, 1)
	go func() {
		rec, body := get(t, s, "/simulate?bench=gzip_comp&policy=C")
		got <- resp{rec, body}
	}()
	deadline := time.After(5 * time.Second)
	for s.eng.Stats().Coalesced == 0 {
		select {
		case <-deadline:
			t.Fatal("handler never joined the in-flight prewarm job")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)

	if err := <-prewarmed; err != nil {
		t.Fatalf("prewarm job: %v", err)
	}
	r := <-got
	if r.rec.Code != http.StatusOK {
		t.Fatalf("coalesced /simulate status = %d: %s", r.rec.Code, r.rec.Body.String())
	}
	var res simPayload
	if err := json.Unmarshal(r.body["result"], &res); err != nil {
		t.Fatal(err)
	}
	if res.Bench != "gzip_comp" || res.Policy != "C" {
		t.Fatalf("payload = %+v", res)
	}
}

// TestFigureEndToEnd is the acceptance path: /figures/10 returns the
// same rows as the batch path (tlsbench -fig 10), and a repeated
// request is served from the store — hit counter increments, no new
// simulation jobs run.
func TestFigureEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates benchmarks")
	}
	benches := []string{"gzip_comp", "mcf"}
	s := testServer(t, benches...)

	rec, body := get(t, s, "/figures/10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Tlsd-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}
	var fig figurePayload
	if err := json.Unmarshal(body["figure"], &fig); err != nil {
		t.Fatal(err)
	}

	// The batch path over the same benchmarks (what tlsbench -fig 10
	// renders; the pipeline is deterministic, so rows must match).
	var runs []*tlssync.Run
	for _, name := range benches {
		w, err := tlssync.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tlssync.NewRun(w)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	batch, err := tlssync.Fig10(runs)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := report.RowsJSON(batch.Rows)
	if len(fig.Rows) != len(wantRows) {
		t.Fatalf("rows = %d, want %d", len(fig.Rows), len(wantRows))
	}
	for i := range wantRows {
		got, _ := json.Marshal(fig.Rows[i])
		want, _ := json.Marshal(wantRows[i])
		if string(got) != string(want) {
			t.Errorf("row %d differs:\n  daemon: %s\n  batch:  %s", i, got, want)
		}
	}
	if fig.Text != batch.Text {
		t.Error("figure text differs between daemon and batch path")
	}

	// Repeated request: store hit, zero new simulation jobs.
	jobsBefore := s.eng.Stats().Submitted
	hitsBefore := s.store.Stats().Hits
	rec2, body2 := get(t, s, "/figures/10")
	if got := rec2.Header().Get("X-Tlsd-Cache"); got != "hit" {
		t.Fatalf("second request cache = %q, want hit", got)
	}
	if string(body2["figure"]) != string(body["figure"]) {
		t.Fatal("cached figure differs from computed figure")
	}
	st := s.eng.Stats()
	if st.Submitted != jobsBefore {
		t.Fatalf("second request submitted %d new jobs", st.Submitted-jobsBefore)
	}
	if got := s.store.Stats().Hits; got != hitsBefore+1 {
		t.Fatalf("hit counter did not increment: %d -> %d", hitsBefore, got)
	}

	// /tables/2 rides the same machinery (and the T2 store entry).
	rec3, _ := get(t, s, "/tables/2")
	if rec3.Code != http.StatusOK {
		t.Fatalf("/tables/2 status = %d", rec3.Code)
	}
}

func TestTable1(t *testing.T) {
	s := testServer(t, "gzip_comp")
	rec, body := get(t, s, "/tables/1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var fig figurePayload
	if err := json.Unmarshal(body["figure"], &fig); err != nil {
		t.Fatal(err)
	}
	if fig.Text != tlssync.MachineTable1() {
		t.Fatal("table 1 text does not match MachineTable1()")
	}
}

func TestStatsShape(t *testing.T) {
	s := testServer(t, "gzip_comp", "mcf")
	_, body := get(t, s, "/stats")
	for _, field := range []string{"uptime_seconds", "store", "jobs", "benchmarks", "policies"} {
		if _, ok := body[field]; !ok {
			t.Errorf("stats missing %q", field)
		}
	}
	var benches struct {
		Serving  []string `json:"serving"`
		Prepared []string `json:"prepared"`
	}
	if err := json.Unmarshal(body["benchmarks"], &benches); err != nil {
		t.Fatal(err)
	}
	if len(benches.Serving) != 2 || len(benches.Prepared) != 0 {
		t.Fatalf("benchmarks = %+v", benches)
	}
}

// TestStatsStages: after one simulation, /stats carries per-stage
// pipeline accounting (compile/profile/trace/sim) under jobs.stages.
func TestStatsStages(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates")
	}
	s := testServer(t, "gzip_comp")
	get(t, s, "/simulate?bench=gzip_comp&policy=U")
	_, body := get(t, s, "/stats")
	var jobsStats struct {
		Stages map[string]struct {
			Runs  int64 `json:"runs"`
			Total int64 `json:"total_time"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(body["jobs"], &jobsStats); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"compile", "profile", "trace", "sim"} {
		st, ok := jobsStats.Stages[stage]
		if !ok {
			t.Errorf("stats missing stage %q (stages = %v)", stage, jobsStats.Stages)
			continue
		}
		if st.Runs <= 0 || st.Total <= 0 {
			t.Errorf("stage %q = %+v, want positive runs and total_time", stage, st)
		}
	}
}

// TestFigureStatsStages: the simulations a figure request runs book
// their time under jobs.stages.sim by the time it answers, not only
// when a later /simulate drains the Run's stage times.
func TestFigureStatsStages(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates")
	}
	s := testServer(t, "synth-3")
	if rec, _ := get(t, s, "/figures/11"); rec.Code != http.StatusOK {
		t.Fatalf("/figures/11: status = %d: %s", rec.Code, rec.Body.String())
	}
	_, body := get(t, s, "/stats")
	var jobsStats struct {
		Stages map[string]struct {
			Runs int64 `json:"runs"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(body["jobs"], &jobsStats); err != nil {
		t.Fatal(err)
	}
	// One run is the prepare's sequential baseline; the figure's own
	// simulations must add another.
	if got := jobsStats.Stages["sim"].Runs; got < 2 {
		t.Errorf("jobs.stages.sim has %d runs after /figures/11, want at least 2 (prepare and figure)", got)
	}
}

// TestDiskWarmRestart: with a cache dir, a fresh server over the same
// dir serves a previously computed simulation from disk without
// compiling anything.
func TestDiskWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates")
	}
	dir := t.TempDir()
	s1, err := newServer(config{workers: 2, cacheDir: dir, benchmarks: []string{"gzip_comp"}, logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	_, body1 := get(t, s1, "/simulate?bench=gzip_comp&policy=U")

	s2, err := newServer(config{workers: 2, cacheDir: dir, benchmarks: []string{"gzip_comp"}, logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec, body2 := get(t, s2, "/simulate?bench=gzip_comp&policy=U")
	if got := rec.Header().Get("X-Tlsd-Cache"); got != "hit" {
		t.Fatalf("restarted server cache = %q, want hit", got)
	}
	if string(body2["result"]) != string(body1["result"]) {
		t.Fatal("disk-served result differs")
	}
	if st := s2.eng.Stats(); st.Submitted != 0 {
		t.Fatalf("restarted server ran %d jobs, want 0", st.Submitted)
	}
	if st := s2.store.Stats(); st.DiskHits != 1 {
		t.Fatalf("store stats = %+v, want disk_hits=1", st)
	}
}
