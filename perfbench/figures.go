package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"tlssync"
	"tlssync/internal/jobs"
)

// engineJ is the job-engine pool size of the figures sweep: one worker
// per client CPU, as tlsbench and tlsd default to on the sizing host.
const engineJ = clients

// figuresRound is one sweep in a fresh process, reported to the parent
// as one JSON line.
type figuresRound struct {
	SetupS  float64           `json:"setup_s"`
	SweepS  float64           `json:"sweep_s"`
	CellsMS []float64         `json:"cells_ms"`
	Failed  int               `json:"failed"`
	Texts   map[string][]byte `json:"texts"`
	PeakMB  float64           `json:"peak_rss_mb"`

	runs []*tlssync.Run // the prepared runs, for the traced run's second render
	jobs jobs.Stats
}

// sweepFigures is the researcher's path through the public API: prepare
// all 15 benchmarks, Prewarm every experiment, render all nine. It is
// what a figures round runs, in a process of its own, and what the
// traced run times: with a recorder, every job runs inside a jobs.run
// span under its phase's span (prepare or prewarm).
func sweepFigures(seed uint64, rec *recorder) (*figuresRound, error) {
	ctx := context.Background()
	eng := jobs.New(engineJ)
	prep := &phaseJobs{rec: rec, span: rec.begin("prepare", -1)}
	eng.SetWrap(prep.wrap)
	t0 := time.Now()
	runs, err := tlssync.PrepareAllJ(ctx, eng, 1, nil)
	setup := time.Since(t0)
	rec.end(prep.span)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	// Each Prewarm job is one figure cell: a (benchmark × policy)
	// simulation. Its latency is its time on a worker.
	cells := &phaseJobs{rec: rec, span: rec.begin("prewarm", -1)}
	eng.SetWrap(cells.wrap)
	t1 := time.Now()
	err = tlssync.Prewarm(ctx, eng, runs, figuresOrder(seed), nil)
	rec.end(cells.span)
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	out := &figuresRound{SetupS: setup.Seconds(), CellsMS: cells.ms, Failed: cells.failed, Texts: make(map[string][]byte), runs: runs}
	for _, id := range tlssync.ExperimentIDs() {
		f, err := tlssync.Experiments[id](runs)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		out.Texts[id] = []byte(f.Text)
	}
	out.SweepS = time.Since(t1).Seconds()
	out.jobs = eng.Stats()
	out.PeakMB, err = vmHWM(os.Getpid())
	return out, err
}

// phaseJobs times the jobs of one sweep phase: each job's time on a
// worker and, when traced, a jobs.run span under the phase's span.
// PrepareAllJ and Prewarm submit every job in one loop without blocking,
// so a jobs.run span's start relative to its phase's start is the job's
// queue wait.
type phaseJobs struct {
	rec    *recorder
	span   int
	mu     sync.Mutex
	ms     []float64
	failed int
}

// wrap is the engine's job wrapper (jobs.Engine.SetWrap).
func (p *phaseJobs) wrap(_ string, fn jobs.JobFunc) jobs.JobFunc {
	return func(ctx context.Context) (any, error) {
		id := p.rec.begin("jobs.run", p.span)
		start := time.Now()
		v, err := fn(ctx)
		d := time.Since(start)
		p.rec.end(id)
		p.mu.Lock()
		if err != nil {
			p.failed++
		} else {
			p.ms = append(p.ms, float64(d.Nanoseconds())/1e6)
		}
		p.mu.Unlock()
		return v, err
	}
}

// runFiguresChild is the child side of a figures round.
func runFiguresChild(seed uint64) error {
	r, err := sweepFigures(seed, nil)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// spawnFiguresRound runs one figures round in a fresh process, so its
// peak RSS is the sweep's own.
func spawnFiguresRound(seed uint64) (*figuresRound, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", "figures", "-seed", strconv.FormatUint(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	proc, err := startChild(cmd)
	if err != nil {
		return nil, fmt.Errorf("figures round: %w", err)
	}
	if <-proc.exited; proc.err != nil {
		return nil, fmt.Errorf("figures round: %w", proc.err)
	}
	var r figuresRound
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("figures round output: %w", err)
	}
	return &r, nil
}

// runFigures repeats fresh-process sweeps until the run has lasted its
// seconds, has set up at least minRounds times, and has enough cells for
// a p99.
func runFigures(e *env) (*result, error) {
	res := newResult(e)
	var t rounds
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < e.seconds || len(t.lat) < minSamples; r++ {
		rs := roundSeed(e.seed, r)
		res.noteRound(rs)
		fr, err := spawnFiguresRound(rs)
		if err != nil {
			return nil, err
		}
		t.add(fr.SetupS, fr.SweepS, fr.PeakMB, fr.CellsMS)
		res.Attempted += len(fr.CellsMS) + fr.Failed + len(fr.Texts)
		res.Failed += fr.Failed
		logf("figures round %d: set-up %.3fs, sweep %.3fs, %d cells, peak RSS %.0f MB", r, fr.SetupS, fr.SweepS, len(fr.CellsMS), fr.PeakMB)
		if got := digest(fr.Texts); got != e.digests.Figures {
			res.mismatch(fmt.Sprintf("round %d: figures digest %s, committed %s", r, got, e.digests.Figures))
		}
	}
	return res, t.report(res)
}
