package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlssync"
	"tlssync/internal/cluster"
	"tlssync/internal/fault"
	"tlssync/internal/jobs"
	"tlssync/internal/journal"
	"tlssync/internal/report"
	"tlssync/internal/resilience"
	"tlssync/internal/sim"
	"tlssync/internal/store"
)

// config wires the daemon's knobs.
type config struct {
	workers int // job-engine worker pool size (<=0: NumCPU)

	storeCap   int      // in-memory store capacity (<=0: default)
	cacheDir   string   // on-disk store layer ("" = memory only)
	benchmarks []string // serving set (empty = all 15)
	logf       func(format string, args ...any)

	// resilience knobs (zero values select the defaults)
	reqTimeout     time.Duration // per-request deadline (<=0: none)
	gateCapacity   int           // concurrent cold requests (<=0: 2×workers)
	queueDepth     int           // admission wait-queue bound (<0: 0; 0: default 64)
	breakThreshold int           // consecutive failures that open a breaker (<=0: 3)
	breakCooldown  time.Duration // base breaker open period (<=0: 5s)
	fsys           store.FS      // disk-layer filesystem (nil: real; chaos tests inject faults)

	// jobWrap, when non-nil, is installed on the engine before startup
	// recovery runs, so the crash harness can arm faults that fire inside
	// recovery's own jobs (SetWrap after newServer would race them).
	jobWrap func(key string, fn jobs.JobFunc) jobs.JobFunc

	// crash-recovery knobs (active only with a cache dir)
	poisonBudget  int           // begin-without-commit count that poisons a job (<=0: 3)
	poisonOpenFor time.Duration // breaker pre-open period for poisoned keys (<=0: 1h)
	scrubEvery    time.Duration // disk-tier scrub interval (<=0: off)

	// faults, when non-nil, exposes the fault-injection surface: the
	// /_faults endpoints are registered and arm points in this registry.
	// Production runs leave it nil; only -enable-fault-injection sets it.
	faults *fault.Registry

	// cluster, when non-nil, joins this daemon to a tlsd cluster: keys
	// are consistent-hashed across the members, cold /simulate work is
	// routed to each key's owner, artifacts replicate to ring
	// successors, and a dead member's journaled-pending jobs are
	// adopted by its successor (see internal/cluster, docs/cluster.md).
	cluster *clusterConfig
}

// server is the simulation service: a content-addressed store in front
// of a coalescing job engine in front of the compile→trace→simulate
// pipeline, with a resilience layer — per-request deadlines, an
// admission gate, and per-key circuit breakers — between the handlers
// and the engine.
type server struct {
	cfg      config
	store    *store.Store
	eng      *jobs.Engine
	journal  *journal.Journal // nil when memory-only
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped with the request deadline
	gate     *resilience.Gate
	breakers *resilience.BreakerSet
	start    time.Time
	stop     chan struct{} // closed by Close; ends background loops
	stopOnce sync.Once

	workloads []*tlssync.Workload // serving set, paper order

	writeErrs       atomic.Int64 // response bodies that failed mid-write
	lastWriteErrLog atomic.Int64 // unix nanos of the last write-error log line

	epMu sync.Mutex
	eps  map[string]*endpointStats // per-endpoint request/error counters

	mu   sync.Mutex
	runs map[string]*tlssync.Run // prepared benchmarks

	keys keyTable // per-artifact-key state: in flight, fenced, landed

	// cluster-mode state (nil/false when running single-node)
	cluster     *cluster.Cluster
	proxyClient *http.Client
	leaving     atomic.Bool // decommission accepted; gossiped as "leaving"
}

// newServer builds the service. It does no compilation up front:
// benchmarks are prepared on demand (coalesced per benchmark) and every
// derived artifact is served from the store once computed.
func newServer(cfg config) (*server, error) {
	if cfg.logf == nil {
		cfg.logf = log.Printf
	}
	st, err := store.NewWithFS(cfg.storeCap, cfg.cacheDir, cfg.fsys)
	if err != nil {
		return nil, err
	}
	all := tlssync.Benchmarks()
	ws := all
	if len(cfg.benchmarks) > 0 {
		ws = ws[:0:0]
		for _, name := range cfg.benchmarks {
			// Benchmark resolves both the paper's 15 names and synthetic
			// "synth-<seed>" workloads (progen-generated, deterministic per
			// seed), so a stress fleet can serve workloads that never
			// collide with the paper artifacts.
			w, err := tlssync.Benchmark(name)
			if err != nil {
				return nil, fmt.Errorf("unknown benchmark %q", name)
			}
			ws = append(ws, w)
		}
	}
	eng := jobs.New(cfg.workers)
	if cfg.jobWrap != nil {
		eng.SetWrap(cfg.jobWrap)
	}
	gateCap := cfg.gateCapacity
	if gateCap <= 0 {
		gateCap = 2 * eng.Workers()
	}
	queue := cfg.queueDepth
	if queue == 0 {
		queue = 64
	} else if queue < 0 {
		queue = 0
	}
	s := &server{
		cfg:       cfg,
		store:     st,
		eng:       eng,
		mux:       http.NewServeMux(),
		gate:      resilience.NewGate(gateCap, queue),
		breakers:  resilience.NewBreakerSet(cfg.breakThreshold, cfg.breakCooldown, 0),
		start:     time.Now(),
		stop:      make(chan struct{}),
		workloads: ws,
		runs:      make(map[string]*tlssync.Run),
		keys:      keyTable{m: make(map[string]*keyState)},
		eps:       make(map[string]*endpointStats),
	}
	// The cluster layer must exist before journal recovery runs: a
	// rebooted cluster member fences its pending jobs against its
	// peers' adoption records before re-running anything.
	if cfg.cluster != nil {
		if err := s.newCluster(cfg.cluster); err != nil {
			return nil, err
		}
	}
	if cfg.cacheDir != "" {
		jnl, err := journal.Open(filepath.Join(cfg.cacheDir, "journal"), cfg.fsys)
		if err != nil {
			return nil, err
		}
		s.journal = jnl
		s.recoverFromJournal()
	}
	if cfg.scrubEvery > 0 && cfg.cacheDir != "" {
		go s.scrubLoop(cfg.scrubEvery)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /figures/{id}", s.handleFigure)
	s.mux.HandleFunc("GET /tables/{id}", s.handleTable)
	if cfg.faults != nil {
		s.mux.HandleFunc("GET /_faults", s.handleFaults)
		s.mux.HandleFunc("POST /_faults/arm", s.handleFaultsArm)
		s.mux.HandleFunc("POST /_faults/reset", s.handleFaultsReset)
	}
	if s.cluster != nil {
		s.registerClusterHandlers()
		s.cluster.Start()
		s.resumeAdoptions()
	}
	// Counters sit outside the timeout wrapper so they observe the
	// status the client actually received (504s included).
	s.handler = s.countEndpoints(resilience.WithTimeout(cfg.reqTimeout, s.mux))
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// fs resolves the configured filesystem seam (nil means the real one),
// so sidecar files (cluster epoch/members/adoptions) see the same
// injected faults as the artifact store.
func (s *server) fs() store.FS {
	if s.cfg.fsys != nil {
		return s.cfg.fsys
	}
	return store.OS
}

// BeginDrain puts the server into draining mode: requests already
// admitted (and warm cache hits) keep being served, but new compute
// work is rejected with 503 and /readyz reports draining so load
// balancers stop routing here. Idempotent.
func (s *server) BeginDrain() { s.gate.Drain() }

// Close stops the background loops and releases the journal handle.
// It exists for tests and orderly embedding; the daemon itself is
// crash-only and converges from any exit via journal replay.
func (s *server) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		if s.cluster != nil {
			s.cluster.Close()
		}
		if s.journal != nil {
			s.journal.Close()
		}
	})
}

// --- crash recovery ---

// journalBegin and journalCommit are nil-safe journal accessors: with
// no cache dir there is no journal and intents are simply not durable.
func (s *server) journalBegin(rec journal.Record) {
	if s.journal != nil {
		s.journal.Begin(rec)
	}
}

func (s *server) journalCommit(key string) {
	if s.journal != nil {
		s.journal.Commit(key)
	}
}

// recoverFromJournal turns the replayed journal into work. Every
// pending job — begun by a previous process, never committed — is
// either re-enqueued as background recovery (with its recovery attempt
// journaled durably BEFORE any work runs, so a recovery that crashes
// the process is counted against it on the next boot) or, once its
// attempts exhaust the poison budget, quarantined: journaled as
// poisoned, reported in /readyz, and its key pre-opened in the breaker
// set so requests for it answer 502 instead of crash-looping the
// daemon. Runs synchronously in newServer; only the job execution
// itself is backgrounded.
func (s *server) recoverFromJournal() {
	budget := s.cfg.poisonBudget
	if budget <= 0 {
		budget = 3
	}
	openFor := s.cfg.poisonOpenFor
	if openFor <= 0 {
		openFor = time.Hour
	}
	var jobs []recoverable
	for _, p := range s.journal.Pending() {
		rec := p.Record
		w, inSet := s.workload(rec.Bench)
		if rec.Kind != "simulate" || !inSet || !slices.Contains(tlssync.PolicyLabels, rec.Label) {
			// A journal from an older serving set or record shape is not
			// recoverable work; commit it away rather than carrying it
			// (and eventually poisoning a key nobody can ask for).
			s.cfg.logf("tlsd: journal: dropping unrecoverable pending job %q", rec.Key)
			s.journal.Commit(rec.Key)
			continue
		}
		if p.Attempts >= budget {
			s.journal.Poison(rec.Key)
			s.breakers.ForceOpen(rec.Key, openFor)
			s.eng.NotePoisoned()
			s.cfg.logf("tlsd: journal: job %s crashed the process %d time(s); poisoned (breaker pre-opened for %v)",
				rec.Key, p.Attempts, openFor)
			continue
		}
		attempt := s.journal.Begin(rec)
		s.cfg.logf("tlsd: journal: recovering %s (attempt %d of %d)", rec.Key, attempt, budget)
		jobs = append(jobs, recoverable{rec: rec, w: w})
	}
	if len(jobs) == 0 {
		return
	}
	if s.cluster != nil {
		// Cluster mode: fence against peer adoptions first (one
		// background round-trip), then recover whatever is still ours.
		go s.recoverFenced(jobs)
		return
	}
	for _, j := range jobs {
		go s.recoverJob(j.rec, j.w)
	}
}

// recoverable is one journal-pending job that passed the poison and
// serving-set filters and awaits (possibly fenced) re-execution.
type recoverable struct {
	rec journal.Record
	w   *tlssync.Workload
}

// recoverJob completes one pending job in the background. If the
// artifact already landed (the crash hit between the store Put and the
// journal commit), recovery is just the missing commit; otherwise the
// job re-runs through the exact path a live request would take, so a
// client retry arriving mid-recovery coalesces with it.
func (s *server) recoverJob(rec journal.Record, w *tlssync.Workload) {
	ctx := context.Background()
	if _, ok := s.store.Get(tlssync.WorkloadArtifactKey("simulate", w, rec.Label)); ok {
		s.journalCommit(rec.Key)
		s.eng.NoteRecovered()
		s.cfg.logf("tlsd: journal: %s already durable; recovered warm", rec.Key)
		return
	}
	run, err := s.run(ctx, rec.Bench)
	if err != nil {
		// A clean in-process failure is not crash-recovery work: commit it
		// away and let the breakers own the failing key. Only a crash —
		// which never reaches this line — leaves the job pending.
		s.cfg.logf("tlsd: journal: recovery of %s failed to prepare: %v", rec.Key, err)
		s.journalCommit(rec.Key)
		return
	}
	if _, err := s.simulateSpec(ctx, run, rec.Bench, rec.Label); err != nil {
		if errors.Is(err, errArtifactLanded) || errors.Is(err, errComputingElsewhere) {
			// The work exists (or is in flight) on a chain peer; the
			// intent was committed inside the job. Nothing to re-run.
			s.eng.NoteRecovered()
			s.cfg.logf("tlsd: journal: %s completed elsewhere in the cluster; recovered without re-running", rec.Key)
			return
		}
		s.cfg.logf("tlsd: journal: recovery of %s failed: %v", rec.Key, err)
		return
	}
	s.eng.NoteRecovered()
	s.cfg.logf("tlsd: journal: recovered %s", rec.Key)
}

// scrubLoop periodically verifies every disk-tier artifact's checksum,
// quarantining corrupt entries (see store.Scrub). Ends at Close.
func (s *server) scrubLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			checked, quarantined := s.store.Scrub(context.Background())
			if quarantined > 0 {
				s.cfg.logf("tlsd: scrub: quarantined %d corrupt artifact(s) of %d checked", quarantined, checked)
			}
		}
	}
}

// workload returns the named workload if it is in the serving set.
func (s *server) workload(name string) (*tlssync.Workload, bool) {
	for _, w := range s.workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// run returns the prepared Run for a benchmark, compiling it at most
// once; concurrent requests for the same benchmark coalesce on the job
// engine. A per-benchmark circuit breaker guards the compile: a
// benchmark whose preparation keeps failing (or panicking) stops
// burning worker slots after a few attempts and is retried via
// half-open probes instead of on every request.
func (s *server) run(ctx context.Context, name string) (*tlssync.Run, error) {
	s.mu.Lock()
	r := s.runs[name]
	s.mu.Unlock()
	if r != nil {
		return r, nil
	}
	done, err := s.breakers.Allow("prepare/" + name)
	if err != nil {
		return nil, err
	}
	v, err := s.eng.Do(ctx, "prepare/"+name, func(context.Context) (any, error) {
		w, ok := s.workload(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		r, err := tlssync.NewRun(w)
		if err != nil {
			return nil, err
		}
		s.observeStages(r)
		// Cache inside the job, not in the caller: when every waiter
		// has timed out, the compile finishes detached and must still
		// land in s.runs — otherwise retries resubmit the compile
		// forever and never reach the simulate stage.
		s.mu.Lock()
		s.runs[name] = r
		s.mu.Unlock()
		return r, nil
	})
	done(err)
	if err != nil {
		return nil, err
	}
	return v.(*tlssync.Run), nil
}

// prepareAll prepares the whole serving set. The fan-out itself uses
// plain goroutines — only the inner compile jobs go through the engine
// (s.run), so the worker pool is never held by a job that waits on
// another job (that nesting deadlocks a 1-worker pool).
func (s *server) prepareAll(ctx context.Context) ([]*tlssync.Run, error) {
	runs := make([]*tlssync.Run, len(s.workloads))
	errs := make([]error, len(s.workloads))
	var wg sync.WaitGroup
	for i, w := range s.workloads {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			runs[i], errs[i] = s.run(ctx, name)
		}(i, w.Name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// --- responses ---

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) error {
	return &httpError{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before the response": not a server failure, but worth counting
// apart from 500s.
const statusClientClosedRequest = 499

// writeJSON renders v. Encode errors — almost always a client that
// disconnected mid-body — are counted (write_errors in /stats) and
// logged at most once per second so a disconnect storm cannot flood
// the log.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		n := s.writeErrs.Add(1)
		now := time.Now().UnixNano()
		last := s.lastWriteErrLog.Load()
		if now-last >= int64(time.Second) && s.lastWriteErrLog.CompareAndSwap(last, now) {
			s.cfg.logf("tlsd: response write failed (%d total): %v", n, err)
		}
	}
}

func (s *server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	var oe *resilience.OpenError
	switch {
	case errors.As(err, &he):
		s.writeJSON(w, he.status, map[string]string{"error": err.Error()})
	case errors.As(err, &oe):
		// An open breaker answers 502: the upstream (this key's compile/
		// simulate pipeline) is the thing that is broken, and the body
		// carries the breaker state so clients can tell a tripped key
		// from a transient failure.
		retry := int(oe.RetryAfter.Seconds() + 1)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.writeJSON(w, http.StatusBadGateway, map[string]any{
			"error": err.Error(),
			"breaker": map[string]any{
				"key":                 oe.Key,
				"state":               oe.State.String(),
				"retry_after_seconds": retry,
			},
		})
	case errors.Is(err, context.DeadlineExceeded):
		s.writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": err.Error()})
	case errors.Is(err, context.Canceled):
		s.writeJSON(w, statusClientClosedRequest, map[string]string{"error": err.Error()})
	default:
		s.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// admit passes the request through the admission gate. It returns a
// non-nil release func when admitted; otherwise it has already written
// the rejection (429 + Retry-After on a full queue, 503 while
// draining) and the handler must return. Warm cache hits are served
// BEFORE admission, so an overloaded or draining daemon keeps
// answering everything it already knows.
func (s *server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.gate.Acquire(r.Context())
	if err == nil {
		return release, true
	}
	switch {
	case errors.Is(err, resilience.ErrShed):
		retry := int(s.gate.RetryAfter().Seconds())
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":               "admission queue full, try again later",
			"retry_after_seconds": retry,
		})
	case errors.Is(err, resilience.ErrDraining):
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error": "server is draining for shutdown",
		})
	default: // the request's own context ended while queued
		s.writeError(w, err)
	}
	return nil, false
}

// setCache marks whether the response body came from the store.
func setCache(w http.ResponseWriter, hit bool) string {
	state := "miss"
	if hit {
		state = "hit"
	}
	w.Header().Set("X-Tlsd-Cache", state)
	return state
}

// --- handlers ---

// handleHealthz is pure liveness: it answers ok as long as the process
// can serve HTTP at all, even while draining or degraded — restarting
// the daemon would not help, so the liveness probe must not fail.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.uptime(),
	})
}

// handleReadyz is readiness: 503 while draining (stop routing here);
// otherwise 200 with status "ok" or "degraded" plus the evidence —
// open breakers, a saturated admission queue, disk-tier errors,
// quarantined artifacts, poisoned jobs, a degraded journal. A degraded
// daemon still serves (warm hits always work), so degraded stays 200
// and the detail is for operators and dashboards.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	gs := s.gate.Stats()
	bs := s.breakers.Stats()
	ss := s.store.Stats()

	status, code := "ok", http.StatusOK
	var reasons []string
	if bs.Open > 0 {
		status = "degraded"
		reasons = append(reasons, fmt.Sprintf("%d breaker(s) open", bs.Open))
	}
	if gs.Queue > 0 && gs.Waiting >= gs.Queue {
		status = "degraded"
		reasons = append(reasons, "admission queue saturated")
	}
	if ss.DiskErrors > 0 {
		status = "degraded"
		reasons = append(reasons, fmt.Sprintf("%d disk-tier error(s)", ss.DiskErrors))
	}
	if ss.CorruptQuarantined > 0 {
		status = "degraded"
		reasons = append(reasons, fmt.Sprintf("%d corrupt artifact(s) quarantined", ss.CorruptQuarantined))
	}
	var js any
	var poisoned []string
	if s.journal != nil {
		jst := s.journal.Stats()
		js = jst
		for _, rec := range s.journal.Poisoned() {
			poisoned = append(poisoned, rec.Key)
		}
		if len(poisoned) > 0 {
			status = "degraded"
			reasons = append(reasons, fmt.Sprintf("%d poisoned job(s) quarantined", len(poisoned)))
		}
		if jst.AppendErrors > 0 {
			status = "degraded"
			reasons = append(reasons, fmt.Sprintf("journal degraded (%d append error(s))", jst.AppendErrors))
		}
	}
	var cs any
	if s.cluster != nil {
		st := s.cluster.StatusNow()
		cs = map[string]any{
			"self":   st.Self,
			"epoch":  st.Epoch,
			"quorum": st.Quorum,
			"alive":  st.Alive,
			"nodes":  len(st.Nodes),
		}
		if !st.Quorum {
			status = "degraded"
			reasons = append(reasons, fmt.Sprintf("cluster quorum lost (%d/%d alive)", st.Alive, len(st.Nodes)))
		} else if dead := len(st.Nodes) - st.Alive; dead > 0 {
			status = "degraded"
			reasons = append(reasons, fmt.Sprintf("%d cluster peer(s) dead", dead))
		}
	}
	if gs.Draining {
		status, code = "draining", http.StatusServiceUnavailable
		reasons = append(reasons, "shutdown in progress")
	}
	s.writeJSON(w, code, map[string]any{
		"status":       status,
		"reasons":      reasons,
		"admission":    gs,
		"breakers":     bs,
		"disk_errors":  ss.DiskErrors,
		"disk_entries": ss.DiskEntries,
		"quarantined":  ss.CorruptQuarantined,
		"journal":      js,
		"poisoned":     poisoned,
		"cluster":      cs,
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	prepared := make([]string, 0, len(s.runs))
	binaries, verrs, vwarns := 0, 0, 0
	for name, run := range s.runs {
		prepared = append(prepared, name)
		for _, rep := range run.Build.VerifyReports {
			binaries++
			verrs += len(rep.Errors())
			vwarns += len(rep.Warnings())
		}
	}
	s.mu.Unlock()
	sort.Strings(prepared)
	serving := make([]string, 0, len(s.workloads))
	for _, w := range s.workloads {
		serving = append(serving, w.Name)
	}
	var js any
	if s.journal != nil {
		js = s.journal.Stats()
	}
	var cs any
	if s.cluster != nil {
		cs = s.cluster.StatusNow()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": s.uptime(),
		"store":          s.store.Stats(),
		"jobs":           s.eng.Stats(),
		"journal":        js,
		"cluster":        cs,
		"admission":      s.gate.Stats(),
		"breakers":       s.breakers.Stats(),
		"write_errors":   s.writeErrs.Load(),
		"http":           s.endpointSnapshot(),
		"benchmarks": map[string]any{
			"serving":  serving,
			"prepared": prepared,
		},
		"policies": tlssync.PolicyLabels,
		"verify": map[string]any{
			"binaries": binaries,
			"errors":   verrs,
			"warnings": vwarns,
		},
	})
}

// simPayload is the stored (and served) artifact of one simulation.
type simPayload struct {
	Bench          string         `json:"bench"`
	Policy         string         `json:"policy"`
	Bar            report.BarJSON `json:"bar"`
	RegionSpeedup  float64        `json:"region_speedup"`
	ProgramSpeedup float64        `json:"program_speedup"`
	Coverage       float64        `json:"coverage"`
	Violations     int64          `json:"violations"`
	Restarts       int64          `json:"restarts"`
	RegionCycles   int64          `json:"region_cycles"`
	SeqCycles      int64          `json:"seq_cycles"`
	// Verify records the static synchronization verification of each
	// compiled binary ("plain", "base", "train", "ref") behind this
	// result. Absent when the build ran with verification off.
	Verify map[string]verifySummary `json:"verify,omitempty"`
}

// verifySummary condenses one binary's verifier report for artifact
// metadata and /stats.
type verifySummary struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
}

// verifySummaries condenses a build's per-binary verification reports.
func verifySummaries(b *tlssync.Build) map[string]verifySummary {
	if b.VerifyReports == nil {
		return nil
	}
	out := make(map[string]verifySummary, len(b.VerifyReports))
	for name, rep := range b.VerifyReports {
		out[name] = verifySummary{Errors: len(rep.Errors()), Warnings: len(rep.Warnings())}
	}
	return out
}

// simPayloadBytes renders one simulation result to its stored (and
// served) artifact bytes. Deterministic: the same result always
// marshals to the same bytes, so job-side and handler-side Puts of the
// same pair are idempotent.
func simPayloadBytes(run *tlssync.Run, bench, policy string, res *sim.Result) ([]byte, error) {
	bar := report.RowsJSON([]report.Row{{Bars: []report.Bar{run.Bar(policy, res)}}})[0].Bars[0]
	return store.Marshal(simPayload{
		Bench:          bench,
		Policy:         policy,
		Bar:            bar,
		RegionSpeedup:  run.RegionSpeedup(res),
		ProgramSpeedup: run.ProgramSpeedup(res),
		Coverage:       run.Coverage(),
		Violations:     res.Violations,
		Restarts:       res.Restarts,
		RegionCycles:   res.RegionCycles(),
		SeqCycles:      res.SeqCycles,
		Verify:         verifySummaries(run.Build),
	})
}

// simulateSpec runs one (benchmark × policy) simulation through the
// full durability stack: a per-pair circuit breaker, a journaled begin
// (the write-ahead intent that makes the job recoverable after a
// SIGKILL), and the coalescing engine. It submits exactly the spec
// Prewarm would submit for the pair — same engine key, same
// *sim.Result return — so a /simulate that joins an in-flight figure
// prewarm (or vice versa, or a startup recovery) shares one type-safe
// execution. The artifact Put and the journal commit both happen
// INSIDE the job: when every waiter has given up (request deadline),
// the execution continues detached and must still land its artifact
// and retire its intent — otherwise a retry recomputes forever and a
// restart re-recovers work that already finished.
func (s *server) simulateSpec(ctx context.Context, run *tlssync.Run, bench, policy string) (*sim.Result, error) {
	sp := run.LabelSpec(policy)
	jkey := sp.Key()
	bdone, err := s.breakers.Allow(jkey)
	if err != nil {
		return nil, err
	}
	akey := tlssync.WorkloadArtifactKey("simulate", run.W, policy)
	s.journalBegin(journal.Record{Key: jkey, Kind: "simulate", Bench: bench, Label: policy})
	defer s.keys.enter(akey, phaseQueued)()
	v, err := s.eng.Do(ctx, jkey, func(context.Context) (any, error) {
		// A caller that warm-missed the store before this key's execution
		// landed can reach the engine after it finished: serve the landed
		// result instead of executing the same work a second time.
		k := s.keys.get(akey)
		if k.landed != nil {
			s.journalCommit(jkey)
			return k.landed, nil
		}
		if s.cluster != nil {
			// Late guard: this job may have sat in the admission or engine
			// queue for a long time (deep backlogs, slow simulations), and
			// the routing-time checks are stale by now. Re-check at the
			// last moment — the artifact may have landed here via a replica
			// push, or a chain peer's execution of the same key may already
			// be underway; either way, running it again here is the
			// double-compute the per-key execution counters catch.
			if _, ok := s.store.Get(akey); ok {
				s.journalCommit(jkey)
				return nil, errArtifactLanded
			}
			// Purely local check, immune to partitions and open breakers:
			// if a peer's adoption record fences this key (learned at
			// journal replay), the adopter is executing it and this node
			// must not. The one exception is mutual cross-adoption — the
			// key was pending in both nodes' journals when both rolled, so
			// each adopted the other's entry and each holds a fence naming
			// the other; without a tiebreak both would defer forever. The
			// lower node ID wins (both sides compare the same two IDs, so
			// they agree on the winner).
			if k.adopter != "" && !(k.count[phaseAdopting] > 0 && s.cluster.Self() < k.adopter) {
				s.journalCommit(jkey)
				return nil, errComputingElsewhere
			}
			if s.chainInflight(akey, true) {
				s.journalCommit(jkey)
				return nil, errComputingElsewhere
			}
		}
		defer s.keys.enter(akey, phaseRunning)()
		res, serr := run.SimulateSpec(sp)
		if serr == nil {
			s.observeStages(run)
		}
		if serr != nil {
			// A clean failure is not crash-recovery work: retire the
			// intent and let the breaker own the failing key.
			s.journalCommit(jkey)
			return nil, serr
		}
		if data, merr := simPayloadBytes(run, bench, policy, res); merr == nil {
			s.store.Put(akey, data)
			if s.cluster != nil {
				// Committed: push copies to the ring successors so the
				// artifact survives this node and a rebooted owner finds
				// it by pull-on-miss.
				s.cluster.ReplicateAsync(akey, data)
			}
		}
		s.keys.land(akey, res)
		if s.cluster != nil {
			// A completed execution completes any adoption record for the
			// same artifact — covers an adopted job finished via journal
			// replay after the adopter itself was restarted.
			s.cluster.MarkAdoptionDone(akey)
		}
		s.journalCommit(jkey)
		return res, nil
	})
	if errors.Is(err, errArtifactLanded) || errors.Is(err, errComputingElsewhere) {
		// Deferrals are not failures: the work exists (or is being
		// produced) elsewhere on the chain, the intent is already
		// committed inside the job, and the breaker must not count
		// strikes against a healthy key.
		bdone(nil)
		return nil, err
	}
	bdone(err)
	if err != nil {
		// The commit above only runs when OUR job executes. A caller that
		// coalesced onto a non-journaled execution (a figure prewarm) gets
		// its result or clean error here instead, so retire the intent on
		// any outcome that is not the caller abandoning ship — an
		// abandoned execution is still running and commits itself.
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.journalCommit(jkey)
		}
		return nil, err
	}
	s.journalCommit(jkey)
	return v.(*sim.Result), nil
}

func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	bench := r.URL.Query().Get("bench")
	policy := r.URL.Query().Get("policy")
	if bench == "" || policy == "" {
		s.writeError(w, errBadRequest("need bench and policy query parameters (e.g. /simulate?bench=gzip_comp&policy=C)"))
		return
	}
	wl, ok := s.workload(bench)
	if !ok {
		s.writeError(w, errNotFound("benchmark %q not in serving set", bench))
		return
	}
	if !slices.Contains(tlssync.PolicyLabels, policy) {
		s.writeError(w, errBadRequest("unknown policy %q (have %s)", policy, strings.Join(tlssync.PolicyLabels, " ")))
		return
	}

	// Warm path: the artifact key is computable without compiling, so
	// cache hits are served before admission — they cost no worker and
	// must keep flowing even when the gate sheds or the daemon drains.
	key := tlssync.WorkloadArtifactKey("simulate", wl, policy)
	if data, ok := s.store.Get(key); ok {
		state := setCache(w, true)
		s.writeJSON(w, http.StatusOK, map[string]any{"cache": state, "result": json.RawMessage(data)})
		return
	}

	// Cluster routing sits between the warm path and admission: warm
	// hits are always served locally (any node may hold a replica),
	// but cold compute belongs to the key's acting owner — route
	// there (proxy + join its execution) instead of computing twice.
	if s.cluster != nil && s.routeSimulate(w, r, key) {
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	run, err := s.run(r.Context(), bench)
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, err := s.simulateSpec(r.Context(), run, bench, policy)
	if err != nil {
		switch {
		case errors.Is(err, errArtifactLanded):
			// A chain peer computed this while our job was queued and the
			// replica push landed: serve the landed artifact.
			if data, ok := s.store.Get(key); ok {
				w.Header().Set("X-Tlsd-Cache", "peer")
				s.writeJSON(w, http.StatusOK, map[string]any{"cache": "peer", "result": json.RawMessage(data)})
				return
			}
			s.writeError(w, err)
		case errors.Is(err, errComputingElsewhere):
			// The retry joins the peer's in-flight execution by proxy
			// (routeSimulate probes chain inflight before computing).
			s.shedCluster(w, "key is executing on a chain peer; a retry joins it")
		default:
			s.writeError(w, err)
		}
		return
	}
	data, err := simPayloadBytes(run, bench, policy, res)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.store.Put(key, data)
	s.cfg.logf("tlsd: simulated %s/%s", bench, policy)
	state := setCache(w, false)
	s.writeJSON(w, http.StatusOK, map[string]any{"cache": state, "result": json.RawMessage(data)})
}

// figurePayload is the stored (and served) artifact of one figure.
type figurePayload struct {
	ID    string           `json:"id"`
	Title string           `json:"title"`
	Rows  []report.RowJSON `json:"rows,omitempty"`
	Text  string           `json:"text"`
}

// figure serves one experiment by ID, from the store when warm; a cold
// figure goes through the admission gate before compiling anything.
func (s *server) figure(w http.ResponseWriter, r *http.Request, id string) {
	exp, ok := tlssync.Experiments[id]
	if !ok {
		s.writeError(w, errNotFound("unknown figure %q (have %s)", id, strings.Join(tlssync.ExperimentIDs(), " ")))
		return
	}
	key := tlssync.FigureKey(id, s.workloads)
	if data, ok := s.store.Get(key); ok {
		state := setCache(w, true)
		s.writeJSON(w, http.StatusOK, map[string]any{"cache": state, "figure": json.RawMessage(data)})
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	runs, err := s.prepareAll(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Fan the figure's simulations out at (benchmark × policy)
	// granularity; concurrent requests for the same figure coalesce
	// per pair on the engine.
	err = tlssync.Prewarm(r.Context(), s.eng, runs, []string{id}, nil)
	s.observeStages(runs...)
	if err != nil {
		s.writeError(w, err)
		return
	}
	f, err := exp(runs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	data, err := store.Marshal(figurePayload{
		ID:    f.ID,
		Title: f.Title,
		Rows:  report.RowsJSON(f.Rows),
		Text:  f.Text,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.store.Put(key, data)
	s.cfg.logf("tlsd: computed figure %s over %d benchmarks", id, len(s.workloads))
	state := setCache(w, false)
	s.writeJSON(w, http.StatusOK, map[string]any{"cache": state, "figure": json.RawMessage(data)})
}

// observeStages feeds the stage times the runs accumulated since their
// last drain into the engine's /stats counters.
func (s *server) observeStages(runs ...*tlssync.Run) {
	for _, r := range runs {
		for stage, d := range r.ConsumeStageTimes() {
			s.eng.ObserveStage(stage, d)
		}
	}
}

func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.figure(w, r, r.PathValue("id"))
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request) {
	switch id := r.PathValue("id"); id {
	case "1":
		// Table 1 is the static machine description; nothing to cache.
		setCache(w, true)
		s.writeJSON(w, http.StatusOK, map[string]any{
			"cache": "hit",
			"figure": figurePayload{
				ID:    "1",
				Title: "Table 1: simulation parameters",
				Text:  tlssync.MachineTable1(),
			},
		})
	case "2", "T2":
		s.figure(w, r, "T2")
	default:
		s.writeError(w, errNotFound("unknown table %q (have 1, 2)", id))
	}
}
