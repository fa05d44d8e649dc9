// Command tlsbench regenerates the paper's figures and tables over the 15
// re-created benchmarks. Compilation and simulation fan out through the
// job engine at (benchmark × policy) granularity, bounded by -j.
//
// Usage:
//
//	tlsbench                    # all figures and tables, all benchmarks
//	tlsbench -fig 8             # one figure
//	tlsbench -table 1           # Table 1 (simulation parameters)
//	tlsbench -table 2           # Table 2 (coverage and speedups)
//	tlsbench -bench gzip_comp   # restrict to one benchmark
//	tlsbench -j 4               # bound simulation parallelism
//	tlsbench -synth 4 -seed 7   # run over 4 seeded synthetic workloads
//
// With -synth N the benchmark set is replaced by N progen-generated
// synthetic workloads derived deterministically from -seed: the same
// (seed, N) always selects the same programs, so synthetic results are
// as reproducible as the paper set's.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"tlssync"
	"tlssync/internal/jobs"
	"tlssync/internal/report"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate (2, 6, 7, 8, 9, 10, 11, 12); empty = all")
	table := flag.String("table", "", "table to regenerate (1 or 2)")
	bench := flag.String("bench", "", "restrict to one benchmark by name")
	format := flag.String("format", "text", "output format for bar figures: text or csv")
	workers := flag.Int("j", runtime.NumCPU(), "max concurrent compilations/simulations")
	quiet := flag.Bool("q", false, "suppress per-(benchmark, policy) progress on stderr")
	seed := flag.Uint64("seed", 1, "root seed for -synth workload generation")
	synth := flag.Int("synth", 0, "replace the benchmark set with this many seeded synthetic workloads")
	flag.Parse()

	if *table == "1" {
		fmt.Print(tlssync.MachineTable1())
		return
	}

	ctx := context.Background()
	eng := jobs.New(*workers)

	progress := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	var runs []*tlssync.Run
	switch {
	case *synth > 0:
		if *bench != "" {
			fatal(fmt.Errorf("-bench and -synth are mutually exclusive"))
		}
		ws := tlssync.SynthBenchmarks(*seed, *synth)
		progress("compiling and baselining %d synthetic workloads (seed %d, -j %d)...\n", len(ws), *seed, eng.Workers())
		var err error
		runs, err = tlssync.PrepareWorkloads(ctx, eng, ws, 1, func(bench string, d time.Duration, err error) {
			if err == nil {
				progress("prepared %-24s %8s\n", bench, d.Round(time.Millisecond))
			}
		})
		if err != nil {
			fatal(err)
		}
	case *bench != "":
		w, err := tlssync.Benchmark(*bench)
		if err != nil {
			fatal(err)
		}
		r, err := tlssync.NewRunWithWorkers(w, *workers)
		if err != nil {
			fatal(err)
		}
		runs = []*tlssync.Run{r}
	default:
		var err error
		progress("compiling and baselining 15 benchmarks (-j %d)...\n", eng.Workers())
		runs, err = tlssync.PrepareAllJ(ctx, eng, 1, func(bench string, d time.Duration, err error) {
			if err == nil {
				progress("prepared %-12s %8s\n", bench, d.Round(time.Millisecond))
			}
		})
		if err != nil {
			fatal(err)
		}
	}

	ids := tlssync.ExperimentIDs()
	switch {
	case *fig != "":
		ids = []string{*fig}
	case *table == "2":
		ids = []string{"T2"}
	}
	for _, id := range ids {
		if _, ok := tlssync.Experiments[id]; !ok {
			fatal(fmt.Errorf("unknown experiment %q", id))
		}
	}

	// Fan every needed (benchmark × policy) simulation out through the
	// engine; the figures below then assemble from cached results.
	total := countSpecs(ids, runs)
	var done atomic.Int64
	err := tlssync.Prewarm(ctx, eng, runs, ids, func(bench, label string, d time.Duration, err error) {
		if err == nil {
			progress("simulated %-12s %-10s %8s  [%d/%d]\n",
				bench, label, d.Round(time.Millisecond), done.Add(1), total)
		}
	})
	if err != nil {
		fatal(err)
	}

	for _, id := range ids {
		f, err := tlssync.Experiments[id](runs)
		if err != nil {
			fatal(err)
		}
		if *format == "csv" && len(f.Rows) > 0 {
			fmt.Print(report.CSV(f.Rows))
			continue
		}
		fmt.Println(f.Text)
	}
}

// countSpecs mirrors Prewarm's dedup to size the progress counter.
func countSpecs(ids []string, runs []*tlssync.Run) int {
	seen := make(map[string]bool)
	for _, id := range ids {
		for _, sp := range tlssync.SpecsFor(id, runs) {
			seen[sp.Key()] = true
		}
	}
	return len(seen)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tlsbench:", err)
	os.Exit(1)
}
