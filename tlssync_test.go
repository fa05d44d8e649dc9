package tlssync

// Reproduction regression tests: each benchmark must exhibit the
// qualitative outcome the paper reports for it (who wins, roughly by how
// much, and why). These are the executable form of EXPERIMENTS.md.

import (
	"testing"

	"tlssync/internal/sim"
)

// runOf compiles and baselines one benchmark (cached per test process via
// the bench harness would be overkill here; compilation is a few seconds).
func runOf(t *testing.T, name string) *Run {
	t.Helper()
	w, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func barOf(t *testing.T, r *Run, policy string) Bar {
	t.Helper()
	res, err := r.Simulate(policy)
	if err != nil {
		t.Fatal(err)
	}
	return r.Bar(policy, res)
}

func TestReproCompilerWinners(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper: compiler-inserted synchronization is the clear winner for
	// GO, GZIP_DECOMP, PERLBMK, GAP (§4.2) and also lifts PARSER and GCC
	// (Fig 8, Table 2).
	for _, name := range []string{"go", "gzip_decomp", "perlbmk", "gap", "parser", "gcc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := runOf(t, name)
			u, c, h := barOf(t, r, "U"), barOf(t, r, "C"), barOf(t, r, "H")
			if c.Total() >= u.Total()*0.8 {
				t.Errorf("C (%.1f) should clearly beat U (%.1f)", c.Total(), u.Total())
			}
			if c.Total() >= h.Total() {
				t.Errorf("C (%.1f) should beat H (%.1f)", c.Total(), h.Total())
			}
			if c.Fail >= u.Fail*0.5 {
				t.Errorf("C fail (%.1f) should cut U fail (%.1f) by more than half", c.Fail, u.Fail)
			}
		})
	}
}

func TestReproHardwareWinsFalseSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper: M88KSIM's violations are false sharing; the compiler,
	// synchronizing true word-level dependences, cannot help, while
	// line-granularity hardware synchronization fixes it.
	r := runOf(t, "m88ksim")
	u, c, h, b := barOf(t, r, "U"), barOf(t, r, "C"), barOf(t, r, "H"), barOf(t, r, "B")
	if h.Total() >= u.Total()*0.6 {
		t.Errorf("H (%.1f) should clearly beat U (%.1f)", h.Total(), u.Total())
	}
	if c.Total() < u.Total()*0.9 {
		t.Errorf("C (%.1f) should NOT meaningfully improve on U (%.1f): false sharing", c.Total(), u.Total())
	}
	// The hybrid must track the hardware's win (paper: "M88KSIM benefits
	// from hardware-inserted synchronization" under the hybrid).
	if b.Total() >= u.Total()*0.6 {
		t.Errorf("B (%.1f) should track H's win (H=%.1f, U=%.1f)", b.Total(), h.Total(), u.Total())
	}
}

func TestReproProfileInputSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper: GZIP_COMP is the one benchmark where the train-input profile
	// leads the compiler to synchronize different load/store pairs, so T
	// clearly underperforms C; for a control benchmark T ≈ C.
	r := runOf(t, "gzip_comp")
	tt, c := barOf(t, r, "T"), barOf(t, r, "C")
	if tt.Total() <= c.Total()*1.15 {
		t.Errorf("gzip_comp: T (%.1f) should clearly underperform C (%.1f)", tt.Total(), c.Total())
	}

	ctrl := runOf(t, "parser")
	tc, cc := barOf(t, ctrl, "T"), barOf(t, ctrl, "C")
	ratio := tc.Total() / cc.Total()
	if ratio > 1.1 || ratio < 0.9 {
		t.Errorf("parser: T (%.1f) and C (%.1f) should be insensitive to profiling input",
			tc.Total(), cc.Total())
	}
}

func TestReproNoProblemBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper: BZIP2_DECOMP (and friends): failed speculation was not a
	// problem to begin with, so no technique changes much.
	for _, name := range []string{"bzip2_decomp", "crafty", "ijpeg"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := runOf(t, name)
			u := barOf(t, r, "U")
			if u.Fail > 3 {
				t.Errorf("U fail segment (%.1f) should be negligible", u.Fail)
			}
			for _, p := range []string{"C", "H", "B", "P"} {
				bar := barOf(t, r, p)
				if bar.Total() > u.Total()*1.1 || bar.Total() < u.Total()*0.9 {
					t.Errorf("%s (%.1f) should be within 10%% of U (%.1f)", p, bar.Total(), u.Total())
				}
			}
		})
	}
}

func TestReproTwolfOverSynchronization(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper: TWOLF's profiled dependence rarely causes violations at
	// runtime, so compiler synchronization is (slightly) pure overhead.
	r := runOf(t, "twolf")
	u, c := barOf(t, r, "U"), barOf(t, r, "C")
	if u.Fail > 3 {
		t.Errorf("twolf U fail (%.1f) should be small", u.Fail)
	}
	if c.Total() < u.Total() {
		t.Errorf("C (%.1f) should not beat U (%.1f): nothing to fix", c.Total(), u.Total())
	}
	if c.Total() > u.Total()*1.15 {
		t.Errorf("C (%.1f) should only slightly degrade U (%.1f)", c.Total(), u.Total())
	}
	// The dependence must actually be synchronized for this to be the
	// over-synchronization case rather than a no-op.
	if len(r.CompilerMarks()) == 0 {
		t.Error("twolf should have synchronized loads")
	}
}

func TestReproPredictionInsignificant(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper: hardware value prediction has insignificant effect —
	// forwarded memory-resident values are unpredictable.
	for _, name := range []string{"gap", "parser", "gzip_comp", "mcf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := runOf(t, name)
			u, p := barOf(t, r, "U"), barOf(t, r, "P")
			ratio := p.Total() / u.Total()
			if ratio < 0.85 || ratio > 1.2 {
				t.Errorf("P (%.1f) should be close to U (%.1f)", p.Total(), u.Total())
			}
		})
	}
}

func TestReproSyncCostBrackets(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper Fig 9: E (free forwarding) lower-bounds C; L (stall until the
	// previous epoch completes) over-serializes benchmarks whose values
	// could be forwarded early.
	for _, name := range []string{"gap", "gzip_decomp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := runOf(t, name)
			c, e, l := barOf(t, r, "C"), barOf(t, r, "E"), barOf(t, r, "L")
			if e.Total() > c.Total()*1.05 {
				t.Errorf("E (%.1f) should not exceed C (%.1f)", e.Total(), c.Total())
			}
			if l.Total() < c.Total()*1.5 {
				t.Errorf("L (%.1f) should heavily over-serialize vs C (%.1f)", l.Total(), c.Total())
			}
		})
	}
}

func TestReproHybridTracksBest(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper: the hybrid "did a better job of tracking the best
	// performance overall than either approach individually".
	var hybridExcess, compilerExcess, hardwareExcess float64
	names := []string{"go", "m88ksim", "gzip_comp", "gzip_decomp", "parser", "gap", "mcf"}
	for _, name := range names {
		r := runOf(t, name)
		c, h, b := barOf(t, r, "C"), barOf(t, r, "H"), barOf(t, r, "B")
		best := c.Total()
		if h.Total() < best {
			best = h.Total()
		}
		hybridExcess += b.Total() / best
		compilerExcess += c.Total() / best
		hardwareExcess += h.Total() / best
	}
	n := float64(len(names))
	if hybridExcess/n > compilerExcess/n && hybridExcess/n > hardwareExcess/n {
		t.Errorf("hybrid tracks best worse (%.2f) than both C (%.2f) and H (%.2f)",
			hybridExcess/n, compilerExcess/n, hardwareExcess/n)
	}
}

func TestReproFig11Complementary(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	// Paper Fig 11: a significant number of violating loads would be
	// synchronized by only one of the two schemes.
	runs := []*Run{runOf(t, "go"), runOf(t, "m88ksim"), runOf(t, "mcf")}
	fig, err := Fig11(runs)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Text == "" {
		t.Fatal("empty figure")
	}
	// At least one benchmark should show compiler-only and hardware-only
	// violations under the U (no stall) mode.
	compOnly, hwOnly := false, false
	for _, r := range runs {
		res, err := r.SimulateSpec(SimSpec{Run: r, Label: "fig11-U", Binary: "base",
			Policy: sim.Policy{Name: "U", CompilerMarks: r.CompilerMarks()}})
		if err != nil {
			t.Fatal(err)
		}
		if res.ViolBuckets[1] > 0 {
			compOnly = true
		}
		if res.ViolBuckets[2] > 0 {
			hwOnly = true
		}
	}
	if !compOnly || !hwOnly {
		t.Errorf("expected both compiler-only and hardware-only violating loads (comp=%v hw=%v)",
			compOnly, hwOnly)
	}
}

func TestMachineTable1(t *testing.T) {
	s := MachineTable1()
	if len(s) == 0 {
		t.Fatal("empty table")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	for _, id := range ExperimentIDs() {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

// TestExperimentsOnSubset exercises every experiment runner end-to-end on
// a two-benchmark subset (the full suite is the benchmark harness's job).
func TestExperimentsOnSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	runs := []*Run{runOf(t, "gap"), runOf(t, "m88ksim")}
	for _, id := range ExperimentIDs() {
		id := id
		t.Run("exp"+id, func(t *testing.T) {
			fig, err := Experiments[id](runs)
			if err != nil {
				t.Fatal(err)
			}
			if fig.Text == "" {
				t.Fatal("empty figure text")
			}
			if fig.ID == "" || fig.Title == "" {
				t.Error("figure metadata missing")
			}
		})
	}
}

// TestBarNormalization pins the Bar conversion arithmetic.
func TestBarNormalization(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	r := runOf(t, "crafty")
	res, err := r.Simulate("U")
	if err != nil {
		t.Fatal(err)
	}
	bar := r.Bar("U", res)
	wantTotal := 100 * float64(res.RegionCycles()) / float64(r.SeqRegion)
	got := bar.Total()
	if got < wantTotal*0.999 || got > wantTotal*1.001 {
		t.Errorf("bar total %.3f, want %.3f", got, wantTotal)
	}
	slots := res.RegionSlots()
	if slots.Total() > 0 {
		wantBusy := wantTotal * float64(slots.Busy) / float64(slots.Total())
		if bar.Busy < wantBusy*0.999 || bar.Busy > wantBusy*1.001 {
			t.Errorf("bar busy %.3f, want %.3f", bar.Busy, wantBusy)
		}
	}
}

// TestTimelineAPI smoke-tests the facade-level timeline path.
func TestTimelineAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	r := runOf(t, "crafty")
	res, err := r.SimulateTimeline("U")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("no spans collected")
	}
}

// TestSeedStability: the qualitative outcome must not depend on the PRNG
// seed baked into NewRun. Recompile parser under different seeds and
// check the headline result (C clearly beats U) each time.
func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	w, err := Benchmark("parser")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{7, 99, 12345} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			b, err := Compile(Config{Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			uTr, err := b.Trace(b.Base, w.Ref)
			if err != nil {
				t.Fatal(err)
			}
			cTr, err := b.Trace(b.Ref, w.Ref)
			if err != nil {
				t.Fatal(err)
			}
			u := sim.Simulate(sim.Input{Trace: uTr, Policy: sim.PolicyU()})
			c := sim.Simulate(sim.Input{Trace: cTr, Policy: sim.PolicyC("C")})
			if c.RegionCycles()*2 > u.RegionCycles() {
				t.Errorf("seed %d: C (%d cycles) should halve U (%d)",
					seed, c.RegionCycles(), u.RegionCycles())
			}
		})
	}
}

// TestSimulateSpecNotesSimStage: every spec, including Figure 11's
// forced-binary ones, books its simulation time to the "sim" stage
// that tlsd reports under /stats jobs.stages.
func TestSimulateSpecNotesSimStage(t *testing.T) {
	w, err := Benchmark("synth-3")
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	run.ConsumeStageTimes()
	for _, sp := range fig11Specs(run) {
		if _, err := run.SimulateSpec(sp); err != nil {
			t.Fatal(err)
		}
		if d := run.ConsumeStageTimes()["sim"]; d <= 0 {
			t.Errorf("%s: sim stage = %v, want > 0", sp.Label, d)
		}
	}
}
