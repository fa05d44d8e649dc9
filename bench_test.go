package tlssync

// The benchmark harness: one testing.B benchmark per figure/table of the
// paper (DESIGN.md §4 maps each to its experiment), plus ablation
// benchmarks for the design decisions of DESIGN.md §5. Each benchmark
// regenerates its figure end-to-end — compilation, profiling,
// transformation and simulation over all 15 re-created benchmarks — and
// reports domain-specific metrics (violations, speedups) alongside time.
//
// Run with: go test -bench=. -benchmem
// The figures' text output lands next to this file when -printfigs is
// set via: go test -bench=Fig -args -printfigs

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"tlssync/internal/racedetect"
	"tlssync/internal/sim"
	"tlssync/internal/workloads"
)

var printFigs = flag.Bool("printfigs", false, "print figure text during benchmarks")

// sharedRuns caches the compiled benchmark suite across benchmarks in one
// process (compilation is identical for every figure).
var (
	runsOnce sync.Once
	runs     []*Run
	runsErr  error
)

func prepared(b *testing.B) []*Run {
	b.Helper()
	runsOnce.Do(func() { runs, runsErr = PrepareAll() })
	if runsErr != nil {
		b.Fatal(runsErr)
	}
	return runs
}

func benchFigure(b *testing.B, id string) *Figure {
	b.Helper()
	rs := prepared(b)
	var fig *Figure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh runs each iteration would re-simulate; the cached Run
		// memoizes per-policy results, so iterations after the first
		// measure the (cheap) aggregation. Report the first iteration's
		// real work via custom metrics instead.
		f, err := Experiments[id](rs)
		if err != nil {
			b.Fatal(err)
		}
		fig = f
	}
	if *printFigs && fig != nil {
		fmt.Println(fig.Text)
	}
	return fig
}

// BenchmarkFig2 regenerates Figure 2 (U vs perfect memory communication).
func BenchmarkFig2(b *testing.B) {
	fig := benchFigure(b, "2")
	var uTotal, oTotal float64
	for _, row := range fig.Rows {
		uTotal += row.Bars[0].Total()
		oTotal += row.Bars[1].Total()
	}
	b.ReportMetric(uTotal/float64(len(fig.Rows)), "U-mean-time")
	b.ReportMetric(oTotal/float64(len(fig.Rows)), "O-mean-time")
}

// BenchmarkFig6 regenerates Figure 6 (prediction threshold study).
func BenchmarkFig6(b *testing.B) {
	fig := benchFigure(b, "6")
	var f5 float64
	for _, row := range fig.Rows {
		f5 += row.Bars[3].Total()
	}
	b.ReportMetric(f5/float64(len(fig.Rows)), "F5-mean-time")
}

// BenchmarkFig7 regenerates the dependence-distance analysis (§2.4).
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, "7")
	// Distance-1 share across all benchmarks.
	rs := prepared(b)
	d1, all := 0, 0
	for _, r := range rs {
		for _, rp := range r.Build.RefProfile.Regions {
			for d, n := range rp.DistanceHistogram() {
				all += n
				if d == 1 {
					d1 += n
				}
			}
		}
	}
	if all > 0 {
		b.ReportMetric(100*float64(d1)/float64(all), "dist1-%")
	}
}

// BenchmarkFig8 regenerates Figure 8 (U vs T vs C).
func BenchmarkFig8(b *testing.B) {
	fig := benchFigure(b, "8")
	improved := 0
	for _, row := range fig.Rows {
		if row.Bars[2].Total() < row.Bars[0].Total()*0.95 {
			improved++
		}
	}
	b.ReportMetric(float64(improved), "benchmarks-improved-by-C")
}

// BenchmarkFig9 regenerates Figure 9 (C vs E vs L).
func BenchmarkFig9(b *testing.B) {
	fig := benchFigure(b, "9")
	var c, e, l float64
	for _, row := range fig.Rows {
		c += row.Bars[0].Total()
		e += row.Bars[1].Total()
		l += row.Bars[2].Total()
	}
	n := float64(len(fig.Rows))
	b.ReportMetric(c/n, "C-mean-time")
	b.ReportMetric(e/n, "E-mean-time")
	b.ReportMetric(l/n, "L-mean-time")
}

// BenchmarkFig10 regenerates Figure 10 (U/P/H/C/B).
func BenchmarkFig10(b *testing.B) {
	fig := benchFigure(b, "10")
	cBest, hBest := 0, 0
	for _, row := range fig.Rows {
		c := row.Bars[3].Total()
		h := row.Bars[2].Total()
		u := row.Bars[0].Total()
		switch {
		case c < h*0.95 && c < u*0.95:
			cBest++
		case h < c*0.95 && h < u*0.95:
			hBest++
		}
	}
	b.ReportMetric(float64(cBest), "compiler-best")
	b.ReportMetric(float64(hBest), "hardware-best")
}

// BenchmarkFig11 regenerates Figure 11 (violation classification).
func BenchmarkFig11(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12 regenerates Figure 12 (program speedups).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "12") }

// BenchmarkTable2 regenerates Table 2 (coverage and speedups).
func BenchmarkTable2(b *testing.B) { benchFigure(b, "T2") }

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// ablateRun compiles one benchmark under a modified configuration and
// returns the normalized C-policy region time.
func ablateTime(b *testing.B, name string, mutate func(*Config)) float64 {
	b.Helper()
	w, err := Benchmark(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42}
	if mutate != nil {
		mutate(&cfg)
	}
	build, err := Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := build.Trace(build.Ref, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	res := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyC("C")})
	seqTr, err := build.Trace(build.Plain, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	seq := sim.SimulateSequentialRegions(sim.Input{Trace: seqTr})
	return 100 * float64(res.RegionCycles()) / float64(seq.RegionCycles())
}

// BenchmarkAblationCloning compares memory synchronization with and
// without call-path cloning on parser (whose references sit behind
// multi-level call paths).
func BenchmarkAblationCloning(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablateTime(b, "parser", nil)
		without = ablateTime(b, "parser", func(c *Config) { c.NoClone = true })
	}
	b.ReportMetric(with, "with-cloning-time")
	b.ReportMetric(without, "without-cloning-time")
}

// BenchmarkAblationScalarScheduling compares scalar synchronization with
// and without the forwarding-path scheduling of [32].
func BenchmarkAblationScalarScheduling(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablateTime(b, "ijpeg", nil)
		without = ablateTime(b, "ijpeg", func(c *Config) { c.NoScalarSchedule = true })
	}
	b.ReportMetric(with, "scheduled-time")
	b.ReportMetric(without, "unscheduled-time")
}

// BenchmarkAblationThreshold sweeps the group-formation threshold on
// gzip_comp (the benchmark whose dependence population spans the bands).
func BenchmarkAblationThreshold(b *testing.B) {
	var t50, t05, t01 float64
	for i := 0; i < b.N; i++ {
		t50 = ablateTime(b, "gzip_comp", func(c *Config) { c.Threshold = 0.50 })
		t05 = ablateTime(b, "gzip_comp", func(c *Config) { c.Threshold = 0.05 })
		t01 = ablateTime(b, "gzip_comp", func(c *Config) { c.Threshold = 0.01 })
	}
	b.ReportMetric(t50, "thresh50-time")
	b.ReportMetric(t05, "thresh05-time")
	b.ReportMetric(t01, "thresh01-time")
}

// BenchmarkAblationHWReset sweeps the hardware violation-table reset
// interval on go (bursty dependences: long intervals over-synchronize).
func BenchmarkAblationHWReset(b *testing.B) {
	w, err := Benchmark("go")
	if err != nil {
		b.Fatal(err)
	}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var short, long float64
	for i := 0; i < b.N; i++ {
		mach := sim.DefaultMachine()
		mach.HWResetEpochs = 16
		resShort := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyH(), Mach: mach})
		mach.HWResetEpochs = 4096
		resLong := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyH(), Mach: mach})
		short = 100 * float64(resShort.RegionCycles()) / float64(run.SeqRegion)
		long = 100 * float64(resLong.RegionCycles()) / float64(run.SeqRegion)
	}
	b.ReportMetric(short, "reset16-time")
	b.ReportMetric(long, "reset4096-time")
}

// BenchmarkAblationGranularity contrasts line-granularity dependence
// tracking (the default, which sees m88ksim's false sharing) with
// word-granularity tracking (which does not).
func BenchmarkAblationGranularity(b *testing.B) {
	w, err := Benchmark("m88ksim")
	if err != nil {
		b.Fatal(err)
	}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var line, word float64
	for i := 0; i < b.N; i++ {
		resLine := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyU()})
		wordMach := sim.DefaultMachine()
		wordMach.LineSize = 8 // one word per "line": no false sharing
		resWord := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyU(), Mach: wordMach})
		line = float64(resLine.Violations)
		word = float64(resWord.Violations)
	}
	b.ReportMetric(line, "line-granularity-violations")
	b.ReportMetric(word, "word-granularity-violations")
}

// BenchmarkCompilePipeline measures the full compiler pipeline on the
// largest workload.
func BenchmarkCompilePipeline(b *testing.B) {
	w, err := Benchmark("gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(Config{
			Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// simSink keeps BenchmarkSimulator's result live, so the measured call
// cannot be optimized away.
var simSink *sim.Result

// simulatorSynthSeeds are the synthetic programs BenchmarkSimulator's
// synth/U case simulates: small, cold programs of the shape tlsd's
// explore traffic serves, where per-simulation state weighs more than
// on the paper benchmarks.
var simulatorSynthSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// BenchmarkSimulator measures raw simulation throughput (events/sec) on
// both simulator loops: speculative regions (parser and gzip_comp under
// U) and sequential segments (the serial sequential baseline on
// parser's plain trace; sequential segments carry most of the events a
// figure sweep simulates). synth/U simulates a fixed set of synthetic
// programs under U, one simulation per program per iteration.
func BenchmarkSimulator(b *testing.B) {
	for _, c := range []struct {
		name, bench string
		seq         bool
	}{
		{"parser/U", "parser", false},
		{"gzip_comp/U", "gzip_comp", false},
		{"parser/seq", "parser", true},
		{"synth/U", "", false},
	} {
		b.Run(c.name, func(b *testing.B) {
			ws := make([]*Workload, 0, len(simulatorSynthSeeds))
			if c.bench == "" {
				for _, seed := range simulatorSynthSeeds {
					ws = append(ws, workloads.Synth(seed))
				}
			} else {
				w, err := Benchmark(c.bench)
				if err != nil {
					b.Fatal(err)
				}
				ws = append(ws, w)
			}
			simulate := sim.Simulate
			if c.seq {
				simulate = sim.SimulateSequentialRegions
			}
			var ins []sim.Input
			events := 0
			for _, w := range ws {
				run, err := NewRun(w)
				if err != nil {
					b.Fatal(err)
				}
				prog := run.Build.Base
				if c.seq {
					prog = run.Build.Plain
				}
				tr, err := run.Build.Trace(prog, w.Ref)
				if err != nil {
					b.Fatal(err)
				}
				ins = append(ins, sim.Input{Trace: tr, Policy: sim.PolicyU()})
				events += tr.Events()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range ins {
					simSink = simulate(in)
				}
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// TestSimulatePerEventAllocBudget is the simulator's allocation budget,
// counted per trace event on real compiled workloads. With the run pool
// warm, a simulation may allocate only per-simulation state
// (machine, result, use spans, region bookkeeping) and must allocate
// nothing per event or per stalled cycle. A slice built per operand
// check, or a map entry per register write, costs several allocations
// per event and overshoots the budget by orders of magnitude. See
// docs/perf.md for the budget table.
func TestSimulatePerEventAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const budget = 0.01 // allocs per event
	for _, name := range []string{"parser", "gzip_comp"} {
		w, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		run, err := NewRun(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []string{"U", "C", "H", "B", "P"} {
			tr, _, err := run.traceFor(run.binaryFor(label))
			if err != nil {
				t.Fatal(err)
			}
			in := sim.Input{Trace: tr, Policy: run.policyFor(label)}
			sim.Simulate(in) // warm the pools
			perEvent := testing.AllocsPerRun(2, func() { sim.Simulate(in) }) / float64(tr.Events())
			t.Logf("%s/%s: %.5f allocs/event over %d events", name, label, perEvent, tr.Events())
			if perEvent > budget {
				t.Errorf("%s/%s: simulating allocates %.4f objects/event, budget %g — the simulator allocates on its per-event path (see docs/perf.md)",
					name, label, perEvent, budget)
			}
		}
	}
}

// TestSimulateBytesPerEventBudget is the simulator's byte budget on the
// synthetic programs tlsd simulates cold. Their traces are short (tens
// of thousands of events), so state allocated once per simulation
// weighs here what it cannot on the paper benchmarks: a cache
// hierarchy built fresh per simulation (590 KB on the paper's machine)
// reads about 15 B/event. With the pools warm a simulation may
// allocate only its machine, result and region bookkeeping. Each
// simulation's bytes are the least of three runs, so a GC that empties
// the pools mid-measurement does not count.
func TestSimulateBytesPerEventBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const budget = 2.5 // bytes per event
	var bytes uint64
	events := 0
	for seed := uint64(1); seed <= 8; seed++ {
		r, err := NewRun(workloads.Synth(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []string{"U", "C", "H", "B"} {
			tr, _, err := r.traceFor(r.binaryFor(label))
			if err != nil {
				t.Fatal(err)
			}
			in := sim.Input{Trace: tr, Policy: r.policyFor(label)}
			sim.Simulate(in) // warm the pools
			least := uint64(math.MaxUint64)
			for i := 0; i < 3; i++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				sim.Simulate(in)
				runtime.ReadMemStats(&m1)
				least = min(least, m1.TotalAlloc-m0.TotalAlloc)
			}
			bytes += least
			events += tr.Events()
		}
	}
	perEvent := float64(bytes) / float64(events)
	t.Logf("%.2f B/event over %d events (%d bytes)", perEvent, events, bytes)
	if perEvent > budget {
		t.Errorf("simulating synthetic programs allocates %.2f B/event, budget %g: the simulator allocates per-simulation state that scales with the cache or the program (see docs/perf.md)",
			perEvent, budget)
	}
}

// BenchmarkAblationOptimizer measures the effect of the classical scalar
// optimizations (gcc -O3's role in the original system) on one benchmark:
// instruction-count reduction and the resulting normalized region time.
func BenchmarkAblationOptimizer(b *testing.B) {
	var plainTime, optTime float64
	for i := 0; i < b.N; i++ {
		plainTime = ablateTime(b, "gcc", nil)
		optTime = ablateTime(b, "gcc", func(c *Config) { c.Optimize = true })
	}
	b.ReportMetric(plainTime, "unoptimized-time")
	b.ReportMetric(optTime, "optimized-time")
}

// BenchmarkExtensionStridePredictor contrasts the paper's last-value
// predictor with a stride predictor (beyond-the-paper extension) on a
// fixed-size allocator loop, whose forwarded value is a bump pointer
// advancing by a constant stride. Last-value prediction finds it
// unpredictable (the paper's conclusion, which generalizes to the
// variable-size allocations of gap); per-epoch stride extrapolation
// captures the fixed-stride case.
func BenchmarkExtensionStridePredictor(b *testing.B) {
	src := `
var arena_top int;
var pool [2048]int;
var out [1024]int;
func main() {
	var i int;
	for i = 0; i < 2048; i = i + 1 { pool[i] = i * 11; }
	parallel for i = 0; i < 500; i = i + 1 {
		var p int = arena_top;
		arena_top = p + 3;
		var j int = 0;
		var acc int = 0;
		while j < 12 {
			acc = acc + pool[(p + j * 31) % 2048];
			j = j + 1;
		}
		out[i % 1024] = acc + p % 101;
	}
	print(arena_top);
}
`
	w := &Workload{Name: "fixed-alloc", Label: "FIXED-ALLOC", Source: src,
		Train: []int64{1}, Ref: []int64{1},
		Character: "fixed-stride bump pointer", PaperCoverage: 1, Expect: "C"}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Base, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var lastT, strideT float64
	for i := 0; i < b.N; i++ {
		last := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyP()})
		stride := sim.Simulate(sim.Input{Trace: tr, Policy: sim.Policy{Name: "SP", StridePredict: true}})
		lastT = 100 * float64(last.RegionCycles()) / float64(run.SeqRegion)
		strideT = 100 * float64(stride.RegionCycles()) / float64(run.SeqRegion)
	}
	b.ReportMetric(lastT, "last-value-time")
	b.ReportMetric(strideT, "stride-time")
}

// BenchmarkExtensionFilterSync measures the paper's §4.2 hybrid
// enhancement (iii): hardware filtering of compiler-inserted
// synchronization channels that rarely forward useful values. The
// workload alternates between two heads so the synchronized value never
// arrives from the immediate predecessor: every wait is useless, and the
// filter recovers the serialization it causes.
func BenchmarkExtensionFilterSync(b *testing.B) {
	src := `
var h0 int;
var pad0 [3]int;
var h1 int;
var work [2048]int;
var out [1024]int;
func main() {
	var i int;
	for i = 0; i < 2048; i = i + 1 { work[i] = i * 13 % 997; }
	parallel for i = 0; i < 400; i = i + 1 {
		var v int = 0;
		if i % 2 == 0 { v = h0; } else { v = h1; }
		var j int = 0;
		var acc int = v % 17;
		while j < 10 {
			acc = acc + work[(i * 37 + j * 59) % 2048];
			j = j + 1;
		}
		if i % 2 == 0 { h0 = acc % 1009; } else { h1 = acc % 1013; }
		out[i % 1024] = acc;
	}
	print(h0 + h1);
}
`
	w := &Workload{Name: "alt-heads", Label: "ALT-HEADS", Source: src,
		Train: []int64{1}, Ref: []int64{1},
		Character: "useless distance-2 synchronization", PaperCoverage: 1, Expect: "hurt"}
	run, err := NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := run.Build.Trace(run.Build.Ref, w.Ref)
	if err != nil {
		b.Fatal(err)
	}
	var plainT, filteredT float64
	for i := 0; i < b.N; i++ {
		plain := sim.Simulate(sim.Input{Trace: tr, Policy: sim.PolicyC("C")})
		filtered := sim.Simulate(sim.Input{Trace: tr, Policy: sim.Policy{Name: "CF", FilterSync: true}})
		plainT = 100 * float64(plain.RegionCycles()) / float64(run.SeqRegion)
		filteredT = 100 * float64(filtered.RegionCycles()) / float64(run.SeqRegion)
	}
	b.ReportMetric(plainT, "C-time")
	b.ReportMetric(filteredT, "C+filter-time")
}
