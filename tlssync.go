// Package tlssync reproduces "Compiler Optimization of Memory-Resident
// Value Communication Between Speculative Threads" (Zhai, Colohan,
// Steffan, Mowry — CGO 2004): a TLS compiler that profiles inter-epoch
// memory dependences, groups the frequent ones, clones call paths, and
// inserts wait/signal synchronization — evaluated on a trace-driven
// 4-CPU TLS chip-multiprocessor simulator against hardware-inserted
// synchronization, value prediction, and a hybrid.
//
// The public API has three layers:
//
//   - Compile / Build: run the full compiler pipeline on a MiniC program
//     and obtain the U (scalar-sync-only), T (train-profiled) and C
//     (ref-profiled) binaries plus profiles (wraps internal/core).
//   - Run: simulate any binary under a named policy and get normalized
//     execution-time breakdowns (wraps internal/sim).
//   - Experiments: regenerate each of the paper's figures and tables over
//     the 15 re-created benchmarks (Fig2..Fig12, Table1, Table2).
package tlssync

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"tlssync/internal/core"
	"tlssync/internal/memsync"
	"tlssync/internal/parallel"
	"tlssync/internal/report"
	"tlssync/internal/sim"
	"tlssync/internal/store"
	"tlssync/internal/trace"
	"tlssync/internal/workloads"
)

// Config re-exports the compiler configuration.
type Config = core.Config

// Build re-exports the compiled program bundle.
type Build = core.Build

// Workload re-exports a benchmark program.
type Workload = workloads.Workload

// Bar re-exports the normalized execution-time breakdown bar.
type Bar = report.Bar

// Compile runs the full TLS compilation pipeline.
func Compile(cfg Config) (*Build, error) { return core.Compile(cfg) }

// Benchmarks returns the paper's 15 re-created benchmarks.
func Benchmarks() []*Workload { return workloads.All() }

// Benchmark returns one benchmark by name (e.g. "gzip_comp"). Names of
// the form "synth-<seed>" resolve to deterministic progen-generated
// synthetic workloads instead of paper benchmarks.
func Benchmark(name string) (*Workload, error) { return workloads.Resolve(name) }

// SynthBenchmarks derives n deterministic synthetic workloads from one
// root seed (see workloads.SynthSet): the same (seed, n) always yields
// the same programs, names and artifact keys.
func SynthBenchmarks(seed uint64, n int) []*Workload { return workloads.SynthSet(seed, n) }

// MachineTable1 renders the simulated machine as the paper's Table 1.
func MachineTable1() string { return sim.DefaultMachine().Table1() }

// Run is a compiled-and-baselined benchmark ready for policy simulations.
// It caches traces per binary and the sequential baseline used to
// normalize every bar. Simulate, SimulatePolicy and SimulateTimeline are
// safe for concurrent callers: traces are computed once per binary and
// results are cached per label under an internal mutex, so figure
// regeneration can fan out at (benchmark × policy) granularity.
type Run struct {
	W     *Workload
	Build *Build

	// SeqRegion and SeqProgram are the 1-CPU cycles of the regions and of
	// the whole program on the untransformed binary.
	SeqRegion  int64
	SeqProgram int64
	SeqOutside int64 // sequential cycles outside regions

	workers int // intra-run parallelism (compile, trace fan-out)

	mu     sync.Mutex            // guards traces, cache and stages
	traces map[string]*traceCell // per-binary trace, computed once
	cache  map[string]*sim.Result
	stages map[string]time.Duration // accumulated wall-clock per pipeline stage
}

// traceCell computes one binary's trace, and the Warmup of its leading
// sequential segments that every policy shares, exactly once even when
// several policies race to request it.
type traceCell struct {
	once sync.Once
	tr   *trace.ProgramTrace
	warm *sim.Warmup
	err  error
}

// runConfig is the compiler configuration NewRun uses for a workload,
// in canonical (defaults-filled) form so cache keys computed before and
// after compilation agree.
func runConfig(w *Workload) core.Config {
	return core.Config{
		Source:     w.Source,
		TrainInput: w.Train,
		RefInput:   w.Ref,
		Seed:       42,
	}.Canonical()
}

// NewRun compiles w and computes its sequential baseline on the serial
// reference path (workers = 1).
func NewRun(w *Workload) (*Run, error) { return NewRunWithWorkers(w, 1) }

// NewRunWithWorkers is NewRun with intra-build parallelism: the compile
// pipeline and an eager fan-out over the per-binary traces use up to
// workers CPUs. Every artifact is
// byte-identical to the workers=1 path (the parallel_diff suites pin
// this); only wall-clock time changes.
func NewRunWithWorkers(w *Workload, workers int) (*Run, error) {
	cfg := runConfig(w)
	cfg.Workers = workers
	b, err := core.Compile(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r := &Run{W: w, Build: b, workers: workers,
		traces: make(map[string]*traceCell),
		cache:  make(map[string]*sim.Result),
		stages: make(map[string]time.Duration),
	}
	for k, d := range b.StageTimes {
		r.stages[k] = d
	}
	traceStart := time.Now() //lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	plainTr, err := b.Trace(b.Plain, w.Ref)
	if err != nil {
		return nil, fmt.Errorf("%s: plain trace: %w", w.Name, err)
	}
	//lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	r.noteStage("trace", time.Since(traceStart))
	simStart := time.Now() //lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	seq := sim.SimulateSequentialRegions(sim.Input{Trace: plainTr})
	//lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	r.noteStage("sim", time.Since(simStart))
	plainTr.Release() // the baseline is the plain trace's only consumer
	r.SeqRegion = seq.RegionCycles()
	r.SeqProgram = seq.TotalCycles
	r.SeqOutside = seq.SeqCycles
	if r.SeqRegion == 0 {
		return nil, fmt.Errorf("%s: no region executed", w.Name)
	}
	if workers > 1 {
		// Warm the three per-binary traces concurrently; every later
		// Simulate call then starts from a memoized trace. Results are
		// identical to lazy computation — traces are deterministic.
		binaries := []string{"base", "train", "ref"}
		if err := parallel.Map(context.Background(), workers, len(binaries),
			func(_ context.Context, i int) error {
				_, _, err := r.traceFor(binaries[i])
				return err
			}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return r, nil
}

// noteStage accumulates wall-clock time for a named pipeline stage.
func (r *Run) noteStage(stage string, d time.Duration) {
	r.mu.Lock()
	r.stages[stage] += d
	r.mu.Unlock()
}

// ConsumeStageTimes returns the stage times accumulated since the last
// call and resets them, so a service layer can feed deltas into its own
// counters after each job.
func (r *Run) ConsumeStageTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.stages
	r.stages = make(map[string]time.Duration)
	return out
}

// binaryFor maps a policy label to the program variant it runs on.
func (r *Run) binaryFor(label string) string {
	switch label {
	case "T":
		return "train"
	case "C", "E", "L", "B":
		return "ref"
	default: // U, O, H, P, oracle variants
		return "base"
	}
}

// traceFor returns binary's trace and its Warmup on the default
// machine.
func (r *Run) traceFor(binary string) (*trace.ProgramTrace, *sim.Warmup, error) {
	r.mu.Lock()
	c, ok := r.traces[binary]
	if !ok {
		c = &traceCell{}
		r.traces[binary] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		var p = r.Build.Base
		switch binary {
		case "train":
			p = r.Build.Train
		case "ref":
			p = r.Build.Ref
		}
		start := time.Now() //lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
		c.tr, c.err = r.Build.Trace(p, r.W.Ref)
		if c.err != nil {
			return
		}
		//lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
		r.noteStage("trace", time.Since(start))
		start = time.Now() //lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
		c.warm = sim.NewWarmup(c.tr, sim.DefaultMachine())
		//lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
		r.noteStage("sim", time.Since(start))
	})
	return c.tr, c.warm, c.err
}

// cachedResult returns the memoized result for a label, if any.
func (r *Run) cachedResult(label string) (*sim.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.cache[label]
	return res, ok
}

// storeResult memoizes a result; the first writer wins so concurrent
// duplicate simulations (deterministic anyway) converge on one value.
func (r *Run) storeResult(label string, res *sim.Result) *sim.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.cache[label]; ok {
		return prev
	}
	r.cache[label] = res
	return res
}

// PolicyLabels are the named policies policyFor builds, in the order
// tlsd's /simulate lists them.
var PolicyLabels = []string{"U", "O", "T", "C", "E", "L", "H", "P", "B"}

// policyFor builds the simulator policy for a label.
func (r *Run) policyFor(label string) sim.Policy {
	switch label {
	case "U":
		return sim.PolicyU()
	case "O":
		return sim.PolicyO()
	case "T":
		return sim.PolicyC("T")
	case "C":
		return sim.PolicyC("C")
	case "E":
		return sim.PolicyE()
	case "L":
		return sim.PolicyL()
	case "H":
		return sim.PolicyH()
	case "P":
		return sim.PolicyP()
	case "B":
		return sim.PolicyB()
	}
	return sim.Policy{Name: label}
}

// Simulate runs (and caches) the named policy. Extra policies can be
// passed explicitly via SimulatePolicy.
func (r *Run) Simulate(label string) (*sim.Result, error) {
	return r.SimulatePolicy(label, r.policyFor(label))
}

// SimulatePolicy runs an explicit policy on the binary the label selects.
func (r *Run) SimulatePolicy(label string, pol sim.Policy) (*sim.Result, error) {
	return r.SimulateSpec(SimSpec{Run: r, Label: label, Policy: pol})
}

// SimulateSpec runs (and caches, by label) one spec on its Run, on
// sp.Binary or, when that is empty, the binary the label selects.
func (r *Run) SimulateSpec(sp SimSpec) (*sim.Result, error) {
	if res, ok := r.cachedResult(sp.Label); ok {
		return res, nil
	}
	binary := sp.Binary
	if binary == "" {
		binary = r.binaryFor(sp.Label)
	}
	tr, warm, err := r.traceFor(binary)
	if err != nil {
		return nil, err
	}
	start := time.Now() //lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	res := sim.Simulate(sim.Input{Trace: tr, Warmup: warm, Policy: sp.Policy})
	//lint:ignore D001 stage timing feeds /stats observability, never artifact bytes
	r.noteStage("sim", time.Since(start))
	return r.storeResult(sp.Label, res), nil
}

// artifactKey hashes an artifact's full identity: kind tag, compiler
// configuration (MiniC source, inputs, seed, heuristics, pass options),
// policy label, and machine configuration.
func artifactKey(kind string, cfg core.Config, label string) string {
	cj, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain struct of scalars and slices; Marshal cannot
		// fail on it, but never let a key silently alias another.
		cj = []byte(fmt.Sprintf("%+v", cfg))
	}
	mj, err := json.Marshal(sim.DefaultMachine())
	if err != nil {
		mj = []byte(sim.DefaultMachine().Table1())
	}
	return store.Key(kind, string(cj), label, string(mj))
}

// ArtifactKey returns the content address identifying a simulation
// artifact of this run for the content-addressed store.
func (r *Run) ArtifactKey(kind, label string) string {
	return artifactKey(kind, r.Build.Config, label)
}

// WorkloadArtifactKey returns the content address a Run over w would
// use for (kind, label) — computable without compiling w, which lets
// the service layer probe the store before doing any work.
func WorkloadArtifactKey(kind string, w *Workload, label string) string {
	return artifactKey(kind, runConfig(w), label)
}

// FigureKey returns the content address of a rendered figure artifact
// over the given workloads (order-sensitive: a different benchmark set
// or order is a different artifact).
func FigureKey(id string, ws []*Workload) string {
	parts := make([]string, 0, len(ws))
	for _, w := range ws {
		parts = append(parts, WorkloadArtifactKey("figure-input", w, id))
	}
	return store.Key("figure/"+id, parts...)
}

// Bar converts a simulation result into the normalized region bar
// (100 = sequential region execution time).
func (r *Run) Bar(label string, res *sim.Result) Bar {
	slots := res.RegionSlots()
	total := 100 * float64(res.RegionCycles()) / float64(r.SeqRegion)
	st := float64(slots.Total())
	if st == 0 {
		return Bar{Label: label}
	}
	return Bar{
		Label: label,
		Busy:  total * float64(slots.Busy) / st,
		Fail:  total * float64(slots.Fail) / st,
		Sync:  total * float64(slots.Sync) / st,
		Other: total * float64(slots.Other) / st,
	}
}

// RegionSpeedup returns seq-region-time / parallel-region-time.
func (r *Run) RegionSpeedup(res *sim.Result) float64 {
	return float64(r.SeqRegion) / float64(res.RegionCycles())
}

// ProgramSpeedup returns whole-program speedup vs sequential execution.
func (r *Run) ProgramSpeedup(res *sim.Result) float64 {
	par := res.SeqCycles + res.RegionCycles()
	return float64(r.SeqProgram) / float64(par)
}

// SeqRegionSpeedup returns the speedup of the code OUTSIDE parallel
// regions (the paper's Table 2 sequential-region column; ~1.0 here since
// our transformations do not touch sequential code — the paper's values
// below 1.0 were a gcc-backend instrumentation artifact).
func (r *Run) SeqRegionSpeedup(res *sim.Result) float64 {
	if res.SeqCycles == 0 {
		return 1
	}
	return float64(r.SeqOutside) / float64(res.SeqCycles)
}

// Coverage returns the fraction of sequential execution time spent in
// parallelized regions.
func (r *Run) Coverage() float64 {
	return float64(r.SeqRegion) / float64(r.SeqProgram)
}

// CompilerMarks returns the set of loads (by origin id) the compiler
// synchronized in the ref-profiled binary.
func (r *Run) CompilerMarks() map[int]bool {
	return memsync.SyncedLoadOrigins(r.Build.Ref)
}

// SimulateTimeline re-runs the named policy with epoch-lifetime spans
// collected (uncached: timelines are for interactive inspection).
func (r *Run) SimulateTimeline(label string) (*sim.Result, error) {
	tr, warm, err := r.traceFor(r.binaryFor(label))
	if err != nil {
		return nil, err
	}
	return sim.Simulate(sim.Input{Trace: tr, Warmup: warm, Policy: r.policyFor(label), CollectTimeline: true}), nil
}
