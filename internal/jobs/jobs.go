// Package jobs is the simulation job engine: a bounded worker pool with
// in-flight request coalescing (singleflight semantics). The service
// layer (cmd/tlsd) and the batch CLIs submit every expensive unit of
// work — compiling a benchmark, tracing a binary, simulating a
// (benchmark × policy) pair — through an Engine, so that
//
//   - parallelism is bounded by a configurable worker count instead of
//     spawning one goroutine per unit of work;
//   - identical concurrent requests (same key) execute once and share
//     the result, which keeps a thundering herd of clients asking for
//     the same figure from simulating it N times; and
//   - callers can abandon work via context cancellation without
//     poisoning the shared execution (the job itself is cancelled only
//     when every subscribed caller has gone away).
package jobs

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// JobFunc is the unit of work submitted to the engine.
type JobFunc = func(context.Context) (any, error)

// Engine is a bounded worker pool with request coalescing. The zero
// value is not usable; construct with New.
type Engine struct {
	workers int
	sem     chan struct{}

	mu       sync.Mutex
	inflight map[string]*call
	wrap     func(key string, fn JobFunc) JobFunc // test-only execution seam

	// counters (guarded by mu)
	submitted int64 // Do calls that started a new execution
	coalesced int64 // Do calls that joined an in-flight execution
	completed int64 // executions that finished without error
	failed    int64 // executions that returned an error (or panicked)
	abandoned int64 // waiters that gave up on a cancelled context
	recovered int64 // journaled jobs completed by startup recovery
	poisoned  int64 // journaled jobs quarantined as crash-loopers
	timedRuns int64 // executions that actually ran (recorded a duration)
	totalDur  time.Duration
	maxDur    time.Duration
	lastDur   time.Duration
	lastKey   string
	running   int // executions currently holding (or waiting for) a slot

	// stages accumulates per-pipeline-stage wall time reported by jobs
	// via ObserveStage ("compile", "profile", "trace", "sim"), so /stats
	// can break the per-job totals above down by where the time went.
	stages map[string]StageStat
}

// StageStat aggregates the wall-clock time of one pipeline stage.
type StageStat struct {
	Runs  int64         `json:"runs"`
	Total time.Duration `json:"total_time"`
	Max   time.Duration `json:"max_time"`
}

// Avg returns the mean duration of one stage observation.
func (s StageStat) Avg() time.Duration {
	if s.Runs == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Runs)
}

// call is one coalesced execution.
type call struct {
	ctx     context.Context // execution context; done ⇒ every waiter abandoned
	done    chan struct{}
	val     any
	err     error
	waiters int                // callers still interested in the result
	started bool               // fn is on a worker (an abandoned call still finishes)
	cancel  context.CancelFunc // cancels the execution when waiters == 0
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Workers   int           `json:"workers"`
	InFlight  int           `json:"in_flight"`  // executions running or queued
	Submitted int64         `json:"submitted"`  // executions started
	Coalesced int64         `json:"coalesced"`  // calls that shared an execution
	Completed int64         `json:"completed"`  // executions finished ok
	Failed    int64         `json:"failed"`     // executions finished with error
	Abandoned int64         `json:"abandoned"`  // waiters lost to cancellation
	Recovered int64         `json:"recovered"`  // journaled jobs completed by startup recovery
	Poisoned  int64         `json:"poisoned"`   // journaled jobs quarantined as crash-loopers
	TimedRuns int64         `json:"timed_runs"` // executions that ran and recorded a duration
	TotalTime time.Duration `json:"total_time"` // summed execution wall time
	MaxTime   time.Duration `json:"max_time"`   // slowest single execution
	LastTime  time.Duration `json:"last_time"`  // most recent execution
	LastKey   string        `json:"last_key"`   // key of the most recent execution

	// Stages breaks execution time down by pipeline stage, keyed
	// "compile"/"profile"/"trace"/"sim" (empty until jobs report).
	Stages map[string]StageStat `json:"stages,omitempty"`
}

// New returns an engine with the given worker-pool size; workers <= 0
// selects runtime.NumCPU().
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Engine{
		workers:  workers,
		sem:      make(chan struct{}, workers),
		inflight: make(map[string]*call),
		stages:   make(map[string]StageStat),
	}
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetWrap installs a hook that wraps every job function just before it
// executes on the pool (after coalescing and slot acquisition). It is
// the fault-injection seam for the chaos tests — inject latency,
// errors, or panics per key — and must not be used to change result
// types, or coalesced joins become type-unsafe. w == nil removes the
// hook.
func (e *Engine) SetWrap(w func(key string, fn JobFunc) JobFunc) {
	e.mu.Lock()
	e.wrap = w
	e.mu.Unlock()
}

// Do submits fn under key and waits for its result. If an execution for
// the same key is already in flight, Do joins it instead of running fn
// again (the coalesced caller gets the same value and error). fn runs on
// the worker pool, bounded by the pool size; Do blocks until the result
// is available or ctx is cancelled. When every caller interested in a
// key has cancelled, the execution's own context is cancelled too.
//
// fn must not call Do (directly or transitively): a job that waits for
// another job holds its worker slot while waiting, which deadlocks once
// the nesting depth reaches the pool size. Fan out with goroutines
// first and submit only the leaf work.
func (e *Engine) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	e.mu.Lock()
	// Join an in-flight call while its execution is live — or while an
	// abandoned execution is still on a worker: a running job keeps going
	// after its last waiter cancelled (it must land its artifact), so a
	// retry arriving mid-run shares that result instead of queueing a
	// second execution of work that is already happening. Only a call
	// cancelled before it ever reached a worker is truly dead (it will
	// finish with context.Canceled without running fn), and only then
	// does a new arrival start a fresh execution.
	if c, ok := e.inflight[key]; ok && (c.ctx.Err() == nil || c.started) {
		c.waiters++
		e.coalesced++
		e.mu.Unlock()
		return e.wait(ctx, c)
	}
	// The execution context is detached from the first caller's ctx so a
	// single cancelled client cannot poison the shared result; it is
	// cancelled explicitly when the last waiter abandons the call.
	jctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call{ctx: jctx, done: make(chan struct{}), waiters: 1, cancel: cancel}
	e.inflight[key] = c
	e.submitted++
	e.running++
	e.mu.Unlock()

	go e.run(jctx, key, c, fn)
	return e.wait(ctx, c)
}

// wait blocks until c completes or ctx is cancelled.
func (e *Engine) wait(ctx context.Context, c *call) (any, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		// When both channels are ready the select may land here even
		// though the result is available; prefer the result.
		select {
		case <-c.done:
			return c.val, c.err
		default:
		}
		e.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			c.cancel()
		}
		e.abandoned++
		e.mu.Unlock()
		return nil, ctx.Err()
	}
}

// run executes one coalesced call on the worker pool.
func (e *Engine) run(ctx context.Context, key string, c *call, fn func(context.Context) (any, error)) {
	// Acquire a worker slot; give up if every waiter cancelled first.
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.finish(key, c, 0, ctx.Err())
		return
	}
	e.mu.Lock()
	// Both select arms may have been ready. A call cancelled while it
	// was still queued has no waiters and admits no new ones (Do only
	// joins cancelled calls that started), so running fn now would be
	// work nobody can observe — and for fns that ignore cancellation, a
	// duplicate execution racing the fresh call that replaced this one.
	if c.ctx.Err() != nil {
		e.mu.Unlock()
		<-e.sem
		e.finish(key, c, 0, c.ctx.Err())
		return
	}
	c.started = true
	if w := e.wrap; w != nil {
		fn = w(key, fn)
	}
	e.mu.Unlock()
	start := time.Now()
	val, err := safeCall(ctx, fn)
	<-e.sem
	c.val = val
	e.finish(key, c, time.Since(start), err)
}

// safeCall runs fn, converting a panic into an error so one bad job
// cannot take down the daemon's worker pool.
func safeCall(ctx context.Context, fn func(context.Context) (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: panic: %v", r)
		}
	}()
	return fn(ctx)
}

// finish publishes the result and updates counters.
func (e *Engine) finish(key string, c *call, d time.Duration, err error) {
	c.err = err
	e.mu.Lock()
	// A fresh execution may have replaced a dying call under this key
	// (see Do); only remove the entry this call still owns.
	if e.inflight[key] == c {
		delete(e.inflight, key)
	}
	e.running--
	if err != nil {
		e.failed++
	} else {
		e.completed++
	}
	if d > 0 {
		e.timedRuns++
		e.totalDur += d
		if d > e.maxDur {
			e.maxDur = d
		}
		e.lastDur = d
		e.lastKey = key
	}
	e.mu.Unlock()
	close(c.done)
	c.cancel() // release the detached context's resources
}

// NoteRecovered counts a journaled job that startup recovery carried to
// completion after a crash. The engine does not run recovery itself —
// the service layer does, through ordinary Do calls — but the counter
// lives here so /stats reports it beside the other execution counters.
func (e *Engine) NoteRecovered() {
	e.mu.Lock()
	e.recovered++
	e.mu.Unlock()
}

// NotePoisoned counts a journaled job quarantined as a crash-looper
// instead of being recovered.
func (e *Engine) NotePoisoned() {
	e.mu.Lock()
	e.poisoned++
	e.mu.Unlock()
}

// ObserveStage accumulates d of wall-clock time under a pipeline stage
// name. Jobs call it after completing work whose internal phases they
// timed; negative durations are ignored.
func (e *Engine) ObserveStage(stage string, d time.Duration) {
	if d < 0 {
		return
	}
	e.mu.Lock()
	s := e.stages[stage]
	s.Runs++
	s.Total += d
	if d > s.Max {
		s.Max = d
	}
	e.stages[stage] = s
	e.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var stages map[string]StageStat
	if len(e.stages) > 0 {
		stages = make(map[string]StageStat, len(e.stages))
		for k, v := range e.stages {
			stages[k] = v
		}
	}
	return Stats{
		Workers:   e.workers,
		InFlight:  e.running,
		Submitted: e.submitted,
		Coalesced: e.coalesced,
		Completed: e.completed,
		Failed:    e.failed,
		Abandoned: e.abandoned,
		Recovered: e.recovered,
		Poisoned:  e.poisoned,
		TimedRuns: e.timedRuns,
		TotalTime: e.totalDur,
		MaxTime:   e.maxDur,
		LastTime:  e.lastDur,
		LastKey:   e.lastKey,
		Stages:    stages,
	}
}

// Group waits for a set of jobs submitted together (a convenience over
// sync.WaitGroup + first-error collection used by the fan-out paths).
type Group struct {
	eng *Engine
	ctx context.Context

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// NewGroup returns a group that submits through eng under ctx.
func (e *Engine) NewGroup(ctx context.Context) *Group {
	return &Group{eng: e, ctx: ctx}
}

// Go submits fn under key and records its result via done (which may be
// nil). The first error is retained for Wait.
func (g *Group) Go(key string, fn func(context.Context) (any, error), done func(val any, err error)) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		val, err := g.eng.Do(g.ctx, key, fn)
		if done != nil {
			done(val, err)
		}
		if err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every submitted job finished and returns the first
// error.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
