// Command perfbench is the repository's benchmark. It runs one workload
// for a given time and prints, as the last line of its standard output,
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload figures|explore|dashboard --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics a user sees; with
// --trace 1 it reports per-layer metrics from a separate traced run.
// Every run checks the program's outputs and exits non-zero on a
// mismatch. run.sh builds it and tlsd from the checkout and runs it;
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// minRounds is the fewest set-ups a run makes, so setup_s is a median.
const minRounds = 3

// env is what every workload needs from the command line.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	tlsd     string // tlsd binary built from the checkout
	root     string // scratch root, shared by runs
	work     string // this run's scratch dir (see README.md on why it is kept)
	spans    string // where the traced run writes its spans
	digests  *digests
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the result line printed last, plus the
// run context printed on the line before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	units   map[string]string
	context runContext
}

// runContext records what a result was measured on.
type runContext struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	CacheDirFS string         `json:"cachedir_fs"`
	Seed       uint64         `json:"seed"`
	RoundSeeds []uint64       `json:"round_seeds"`
	Samples    map[string]int `json:"samples"` // sample count behind each percentile
	ErrorRate  float64        `json:"error_rate"`
	Mismatches []string       `json:"mismatches,omitempty"`
}

func newResult(e *env) *result {
	return &result{
		Metrics: make(map[string]metric),
		units:   endToEndUnits,
		context: runContext{Workload: e.workload, Seed: e.seed, Samples: make(map[string]int)},
	}
}

func (r *result) noteRound(seed uint64) { r.context.RoundSeeds = append(r.context.RoundSeeds, seed) }

// set records a metric under its declared unit.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records an output that differs from what it must be. It
// counts as a failed operation, and any failed operation makes the run
// incorrect.
func (r *result) mismatch(msg string) {
	r.Failed++
	r.note(msg)
}

// note records why operations failed, for the run context.
func (r *result) note(msg string) { r.context.Mismatches = append(r.context.Mismatches, msg) }

// percentiles sets p50_ms and p99_ms from latency samples.
func (r *result) percentiles(latMS []float64) error {
	for _, p := range []struct {
		name string
		p    float64
	}{{"p50_ms", 50}, {"p99_ms", 99}} {
		v, err := nearestRank(latMS, p.p)
		if err != nil {
			return err
		}
		r.set(p.name, v)
		r.context.Samples[p.name] = len(latMS)
	}
	return nil
}

// endToEndUnits are the metrics a --trace 0 run reports, with units;
// BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"sweep_s":     "s",
	"p50_ms":      "ms",
	"p99_ms":      "ms",
	"rps":         "req/s",
	"peak_rss_mb": "MB",
}

func main() {
	workload := flag.String("workload", "", "figures, explore or dashboard")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	tlsd := flag.String("tlsd", ".bench_build/bin/tlsd", "tlsd binary")
	work := flag.String("workdir", ".bench_build/work", "scratch directory")
	digestsPath := flag.String("digests", "perfbench/digests.json", "committed output digests")
	commit := flag.String("commit", "unknown", "commit or source-tree id of the checkout, for the run context")
	child := flag.String("child", "", "internal: run one figures round in this process")
	writeDigests := flag.Bool("write-digests", false, "recompute the committed digests at the default seed and write them")
	flag.Parse()

	if *child == "figures" {
		if err := runFiguresChild(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	stopChildrenOnSignal()
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, tlsd: *tlsd}
	var err error
	if e.tlsd, err = filepath.Abs(*tlsd); err != nil {
		fail(err)
	}
	if _, err := os.Stat(e.tlsd); err != nil {
		fail(fmt.Errorf("tlsd binary: %w", err))
	}
	if *writeDigests {
		if err := regenerateDigests(e, *work, *digestsPath); err != nil {
			fail(err)
		}
		return
	}
	if e.digests, err = loadDigests(*digestsPath); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err)
	}
	e.root = *work
	e.work, err = os.MkdirTemp(*work, e.workload+"-")
	if err != nil {
		fail(err)
	}
	e.spans = filepath.Join(filepath.Dir(e.work), fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
	res, err := runWorkload(e, *trace == 1)
	if err != nil {
		fail(err)
	}
	res.context.Trace = *trace == 1
	res.context.Nproc = runtime.NumCPU()
	res.context.GOMAXPROCS = runtime.GOMAXPROCS(0)
	res.context.GoVersion = runtime.Version()
	res.context.Commit = *commit
	res.context.CacheDirFS = fsType(*work)
	res.context.ErrorRate = ratio(float64(res.Failed), float64(res.Attempted))
	res.Correct = res.Failed == 0
	for name := range res.units {
		if _, ok := res.Metrics[name]; !ok {
			fail(fmt.Errorf("%s run did not measure %s", e.workload, name))
		}
	}
	ctx, _ := json.Marshal(map[string]any{"context": res.context})
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(ctx))
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed: %v\n", res.Failed, res.Attempted, res.context.Mismatches)
		os.Exit(1)
	}
}

func runWorkload(e *env, traced bool) (*result, error) {
	switch {
	case e.workload == "figures" && !traced:
		return runFigures(e)
	case e.workload == "figures":
		return traceFigures(e)
	case e.workload == "explore" && !traced:
		return runExplore(e)
	case e.workload == "explore":
		return traceExplore(e)
	case e.workload == "dashboard" && !traced:
		return runDashboard(e)
	case e.workload == "dashboard":
		return traceDashboard(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have figures, explore, dashboard)", e.workload)
}

// logf prints progress to standard error; standard output carries the
// result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %7.2fs "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

// started is when the process started, for progress lines.
var started = time.Now()

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// fsType names the filesystem holding dir, for the run context: the
// dashboard's daemons read their cache dirs from it and fsync there.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
