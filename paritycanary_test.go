package tlssync

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"tlssync/internal/jobs"
)

// minParitySpeedup is the canary's threshold: a -j4 run more than 10%
// slower than -j1 (speedup j1/j4 below 0.9) is a parallelism
// regression. The canary checks "parallelism never costs", not "it
// pays", because a real speedup check needs quiet hardware and CI
// runners are not.
const minParitySpeedup = 0.9

// parityGate is one j1-vs-j4 comparison of the parity canary.
type parityGate struct {
	name string
	// measure returns the gate's estimate of ns/op at the given
	// worker count.
	measure func(workers int) int64
}

// parityGates are the two gates of `make bench-smoke`.
var parityGates = []parityGate{
	// The tlsbench-shaped pipeline on the first three benchmarks: the
	// engine pool is the parallel axis, one testing.Benchmark per side.
	{name: "pipeline", measure: func(workers int) int64 {
		names := make([]string, 0, 3)
		for _, w := range Benchmarks()[:3] {
			names = append(names, w.Name)
		}
		return testing.Benchmark(func(b *testing.B) { benchPipeline(b, names, workers) }).NsPerOp()
	}},
	// One parser build, with intra-build workers as the parallel axis.
	// parser is the mid-size benchmark the allocation work was profiled
	// against (docs/perf.md): big enough that parallel overhead shows,
	// small enough not to thrash the GC on small runners.
	{name: "build/parser", measure: func(workers int) int64 {
		// With >= 4 CPUs, GOMAXPROCS=4 runs the four workers on real
		// cores and -j4 must not lose to -j1. On fewer cores it would
		// be pure time-slicing, so the honest invariant there is
		// GOMAXPROCS=1: the parallel code path must cost nothing when
		// the scheduler serializes it.
		procs := 1
		if runtime.NumCPU() >= 4 {
			procs = 4
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// Benchmark noise is one-sided (interference only adds time),
		// so the minimum over a few repetitions is the stable estimator
		// on shared runners.
		var best int64
		for rep := 0; rep < 3; rep++ {
			ns := testing.Benchmark(func(b *testing.B) { benchBuild(b, "parser", workers) }).NsPerOp()
			if rep == 0 || ns < best {
				best = ns
			}
		}
		return best
	}},
}

// check fails when the -j4 measurement is more than 10% slower than
// -j1. A missing measurement (a benchmark that failed reports 0 ns/op)
// fails too, so the canary cannot pass by not measuring.
func (g parityGate) check(j1, j4 int64) error {
	if j1 <= 0 || j4 <= 0 {
		return fmt.Errorf("%s: no measurement (j1 %d ns/op, j4 %d ns/op)", g.name, j1, j4)
	}
	if speedup := float64(j1) / float64(j4); speedup < minParitySpeedup {
		return fmt.Errorf("%s: -j4 is >10%% slower than -j1 (speedup %.2f): parallelism regression", g.name, speedup)
	}
	return nil
}

// TestParityCanary is the CI canary behind `make bench-smoke`: each gate
// times its workload at -j1 and -j4 and fails on a parity regression.
// It is opt-in (set BENCH_SMOKE=1) because it deliberately saturates
// the machine.
func TestParityCanary(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the -j4 vs -j1 parity canary")
	}
	for _, g := range parityGates {
		t.Run(g.name, func(t *testing.T) {
			j1, j4 := g.measure(1), g.measure(4)
			t.Logf("j1 %d ns/op, j4 %d ns/op", j1, j4)
			if err := g.check(j1, j4); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestParityGateThreshold shows the canary can fail: for every gate, a
// -j4 run at speedup 0.89 is a regression and one at 0.95 is not.
func TestParityGateThreshold(t *testing.T) {
	for _, g := range parityGates {
		if err := g.check(89, 100); err == nil {
			t.Errorf("%s: speedup 0.89 passed, want failure", g.name)
		}
		if err := g.check(95, 100); err != nil {
			t.Errorf("%s: speedup 0.95 failed: %v", g.name, err)
		}
		if err := g.check(100, 0); err == nil {
			t.Errorf("%s: a missing -j4 measurement passed, want failure", g.name)
		}
	}
}

// benchPipeline times one tlsbench-shaped sweep: prepare each benchmark
// through a fresh engine's worker pool, then prewarm Figure 10. Fresh
// Runs every iteration — Run memoizes simulations, so reusing them
// would time cache hits.
func benchPipeline(b *testing.B, names []string, workers int) {
	for i := 0; i < b.N; i++ {
		eng := jobs.New(workers)
		ctx := context.Background()
		runs := make([]*Run, len(names))
		g := eng.NewGroup(ctx)
		for j, name := range names {
			g.Go(fmt.Sprintf("prepare/%s/%d", name, i), func(context.Context) (any, error) {
				w, err := Benchmark(name)
				if err != nil {
					return nil, err
				}
				return NewRunWithWorkers(w, 1)
			}, func(val any, err error) {
				if err == nil {
					runs[j] = val.(*Run)
				}
			})
		}
		if err := g.Wait(); err != nil {
			b.Fatal(err)
		}
		if err := Prewarm(ctx, eng, runs, []string{"10"}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBuild times a single benchmark's compile at a given intra-build
// worker count (the tlsc -j knob). It times Compile rather than
// NewRunWithWorkers because Compile performs identical work at every
// worker count, whereas NewRunWithWorkers at -j>1 eagerly builds traces
// that -j1 defers to first use — timing that would compare different
// amounts of work.
func benchBuild(b *testing.B, name string, workers int) {
	w, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42,
		Workers: workers,
	}
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
