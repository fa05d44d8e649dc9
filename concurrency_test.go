package tlssync

import (
	"context"
	"sync"
	"testing"

	"tlssync/internal/jobs"
	"tlssync/internal/sim"
)

// TestConcurrentSimulate hammers one Run from many goroutines — every
// policy label several times over — and checks that all callers of a
// label observe the same cached result. Run under -race (the Makefile
// race target) this verifies the Run-level trace/result caches are safe
// for the (benchmark × policy) fan-out.
func TestConcurrentSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates a benchmark")
	}
	w, err := Benchmark("gzip_comp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}

	labels := []string{"U", "O", "T", "C", "E", "L", "H", "P", "B"}
	const callersPerLabel = 4
	results := make([][]*sim.Result, len(labels))
	for i := range results {
		results[i] = make([]*sim.Result, callersPerLabel)
	}
	var wg sync.WaitGroup
	for i, l := range labels {
		for c := 0; c < callersPerLabel; c++ {
			wg.Add(1)
			go func(i, c int, l string) {
				defer wg.Done()
				res, err := r.Simulate(l)
				if err != nil {
					t.Errorf("%s: %v", l, err)
					return
				}
				results[i][c] = res
			}(i, c, l)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, l := range labels {
		for c := 1; c < callersPerLabel; c++ {
			if results[i][c] != results[i][0] {
				// Concurrent first computations may race benignly, but all
				// callers must converge on one cached *Result.
				t.Errorf("%s: caller %d got a different result pointer", l, c)
			}
		}
	}
}

// TestPrewarmMatchesSequential: fanning a figure out through the job
// engine yields exactly the figure the sequential path produces.
func TestPrewarmMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates benchmarks")
	}
	prep := func() []*Run {
		var runs []*Run
		for _, name := range []string{"gzip_comp", "mcf"} {
			w, err := Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRun(w)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
		return runs
	}

	warm := prep()
	eng := jobs.New(4)
	if err := Prewarm(context.Background(), eng, warm, []string{"10"}, nil); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if want := int64(2 * 5); st.Submitted != want { // 2 benchmarks × 5 policies
		t.Fatalf("submitted = %d, want %d", st.Submitted, want)
	}
	figWarm, err := Fig10(warm)
	if err != nil {
		t.Fatal(err)
	}

	figSeq, err := Fig10(prep())
	if err != nil {
		t.Fatal(err)
	}
	if figWarm.Text != figSeq.Text {
		t.Fatalf("prewarmed figure differs from sequential:\n%s\nvs\n%s", figWarm.Text, figSeq.Text)
	}
}

// TestSpecsForCoverAllExperiments: every experiment that simulates has
// specs, and spec labels are unique per run.
func TestSpecsForCoverAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a benchmark")
	}
	w, err := Benchmark("gzip_comp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	runs := []*Run{r}
	wantCounts := map[string]int{
		"2": 2, "6": 4, "7": 0, "8": 3, "9": 3, "10": 5, "11": 4, "12": 4, "T2": 2,
	}
	for _, id := range ExperimentIDs() {
		specs := SpecsFor(id, runs)
		if len(specs) != wantCounts[id] {
			t.Errorf("SpecsFor(%q): %d specs, want %d", id, len(specs), wantCounts[id])
		}
		seen := make(map[string]bool)
		for _, sp := range specs {
			if seen[sp.Key()] {
				t.Errorf("SpecsFor(%q): duplicate key %s", id, sp.Key())
			}
			seen[sp.Key()] = true
		}
	}
}

// TestWarmupSharedAcrossGoroutines: eight goroutines simulate one trace
// under eight policies, all restoring the same sim.Warmup, and each
// result must be byte-identical to simulating that policy without it.
// Run under -race (the Makefile race target) this verifies a Warmup is
// read-only once built.
func TestWarmupSharedAcrossGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates a benchmark")
	}
	w, err := Benchmark("gzip_comp")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	tr, warm, err := r.traceFor("base")
	if err != nil {
		t.Fatal(err)
	}
	labels := PolicyLabels[:8]
	cold := make([]string, len(labels))
	for i, l := range labels {
		cold[i] = string(mustJSON(t, sim.Simulate(sim.Input{Trace: tr, Policy: r.policyFor(l)})))
	}
	warmed := make([]*sim.Result, len(labels))
	var wg sync.WaitGroup
	for i, l := range labels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmed[i] = sim.Simulate(sim.Input{Trace: tr, Warmup: warm, Policy: r.policyFor(l)})
		}()
	}
	wg.Wait()
	for i, l := range labels {
		if got := string(mustJSON(t, warmed[i])); got != cold[i] {
			t.Errorf("%s: the shared warm-up changed the result\nwarm: %s\ncold: %s", l, got, cold[i])
		}
	}
}
