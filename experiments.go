package tlssync

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tlssync/internal/jobs"
	"tlssync/internal/report"
	"tlssync/internal/sim"
)

// This file regenerates each of the paper's figures and tables. Every
// experiment takes prepared Runs (so callers can reuse compilations
// across figures) and returns both structured rows and rendered text.

// Figure is a rendered experiment with its structured data.
type Figure struct {
	ID    string
	Title string
	Rows  []report.Row
	Text  string
}

// PrepareAll compiles and baselines every benchmark, in parallel
// (compilation and baselining are independent per benchmark; the
// per-benchmark pipeline itself stays deterministic).
func PrepareAll() ([]*Run, error) {
	return PrepareAllJ(context.Background(), jobs.New(0), 1, nil)
}

// PrepareAllJ compiles and baselines every benchmark through the job
// engine, so compilation parallelism is bounded by the engine's worker
// pool and concurrent callers preparing the same benchmark coalesce.
// Each benchmark's compile/baseline additionally uses up to
// buildWorkers CPUs (NewRunWithWorkers); buildWorkers > 1 mainly helps
// when preparing few benchmarks on many cores. progress (optional) is
// invoked once per completed benchmark.
func PrepareAllJ(ctx context.Context, eng *jobs.Engine, buildWorkers int, progress func(bench string, d time.Duration, err error)) ([]*Run, error) {
	return PrepareWorkloads(ctx, eng, Benchmarks(), buildWorkers, progress)
}

// PrepareWorkloads compiles and baselines an arbitrary workload set —
// the paper's benchmarks, a subset, or progen-generated synthetic
// workloads (SynthBenchmarks) — through the job engine, with the same
// coalescing and parallelism bounds as PrepareAllJ.
func PrepareWorkloads(ctx context.Context, eng *jobs.Engine, ws []*Workload, buildWorkers int, progress func(bench string, d time.Duration, err error)) ([]*Run, error) {
	runs := make([]*Run, len(ws))
	g := eng.NewGroup(ctx)
	for i, w := range ws {
		i, w := i, w
		start := time.Now() //lint:ignore D001 progress-callback latency only; never reaches artifact bytes
		g.Go("prepare/"+w.Name, func(context.Context) (any, error) {
			return NewRunWithWorkers(w, buildWorkers)
		}, func(val any, err error) {
			if err == nil {
				runs[i] = val.(*Run)
			}
			if progress != nil {
				//lint:ignore D001 progress-callback latency only; never reaches artifact bytes
				progress(w.Name, time.Since(start), err)
			}
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return runs, nil
}

func barsFor(r *Run, labels ...string) ([]report.Bar, error) {
	var bars []report.Bar
	for _, l := range labels {
		res, err := r.Simulate(l)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.W.Name, l, err)
		}
		bars = append(bars, r.Bar(l, res))
	}
	return bars, nil
}

// Fig2 — the potential of improving memory value communication: baseline
// TLS (U) vs perfect memory value communication (O).
func Fig2(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "2", Title: "Figure 2: potential performance impact of perfect memory-resident value communication\n" +
		"U = TLS baseline, O = no memory violations and no memory sync stalls"}
	for _, r := range runs {
		bars, err := barsFor(r, "U", "O")
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, report.Row{Bench: r.W.Label, Bars: bars})
	}
	f.Text = report.RenderBars(f.Title, f.Rows, 50)
	return f, nil
}

// Fig6 — the threshold study: perfect prediction of loads whose
// inter-epoch dependence frequency exceeds 25%, 15% and 5% of epochs.
func Fig6(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "6", Title: "Figure 6: perfect prediction of loads above dependence-frequency thresholds\n" +
		"U = none; F25/F15/F5 = loads violating in >25%/>15%/>5% of epochs predicted perfectly"}
	for _, r := range runs {
		bars, err := barsFor(r, "U")
		if err != nil {
			return nil, err
		}
		for _, th := range fig6Thresholds {
			res, err := r.SimulatePolicy("fig6-"+th.label, r.fig6Policy(th.label, th.frac))
			if err != nil {
				return nil, err
			}
			bars = append(bars, r.Bar(th.label, res))
		}
		f.Rows = append(f.Rows, report.Row{Bench: r.W.Label, Bars: bars})
	}
	f.Text = report.RenderBars(f.Title, f.Rows, 50)
	return f, nil
}

// fig6Thresholds are the threshold study's oracle configurations.
var fig6Thresholds = []struct {
	label string
	frac  float64
}{{"F25", 0.25}, {"F15", 0.15}, {"F5", 0.05}}

// fig6Policy builds the oracle policy that perfectly predicts every load
// violating in more than frac of epochs.
func (r *Run) fig6Policy(label string, frac float64) sim.Policy {
	set := make(map[int]bool)
	//lint:ignore D001 set union across regions — membership is order-free
	for _, rp := range r.Build.RefProfile.Regions {
		for id := range rp.LoadsAboveThreshold(frac) {
			set[id] = true
		}
	}
	return sim.Policy{Name: label, OracleLoads: set}
}

// Fig7 — dependence distance distribution (paper §2.4: most frequent
// dependences are between consecutive epochs).
func Fig7(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "7", Title: "Dependence distance distribution (per §2.4)"}
	var sb strings.Builder
	sb.WriteString(f.Title + "\n\n")
	agg := make(map[int]int)
	for _, r := range runs {
		h := make(map[int]int)
		//lint:ignore D001 integer histogram accumulation (+=) is commutative across regions
		for _, rp := range r.Build.RefProfile.Regions {
			for d, n := range rp.DistanceHistogram() {
				h[d] += n
				agg[d] += n
			}
		}
		if len(h) == 0 {
			fmt.Fprintf(&sb, "%s: no inter-epoch dependences\n", r.W.Label)
			continue
		}
		sb.WriteString(report.Histogram(r.W.Label, h, 30))
	}
	sb.WriteString("\n")
	sb.WriteString(report.Histogram("ALL BENCHMARKS", agg, 40))
	f.Text = sb.String()
	return f, nil
}

// Fig8 — compiler-inserted synchronization: U vs T (train-input profile)
// vs C (ref-input profile).
func Fig8(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "8", Title: "Figure 8: compiler-inserted synchronization of memory-resident values\n" +
		"U = baseline; T = profiled on train input; C = profiled on ref input"}
	for _, r := range runs {
		bars, err := barsFor(r, "U", "T", "C")
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, report.Row{Bench: r.W.Label, Bars: bars})
	}
	f.Text = report.RenderBars(f.Title, f.Rows, 50)
	return f, nil
}

// Fig9 — the cost of synchronization: C vs E (perfectly predicted
// synchronized values: no wait stalls) vs L (synchronized loads stall
// until the previous epoch completes).
func Fig9(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "9", Title: "Figure 9: sensitivity to the cost of synchronization\n" +
		"C = compiler sync; E = perfect prediction of synchronized values; L = stall until previous epoch completes"}
	for _, r := range runs {
		bars, err := barsFor(r, "C", "E", "L")
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, report.Row{Bench: r.W.Label, Bars: bars})
	}
	f.Text = report.RenderBars(f.Title, f.Rows, 50)
	return f, nil
}

// Fig10 — compiler-inserted vs hardware-inserted synchronization:
// U, P (hw value prediction), H (hw sync), C (compiler sync), B (hybrid).
func Fig10(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "10", Title: "Figure 10: compiler-inserted vs hardware-inserted synchronization\n" +
		"U = baseline; P = hw value prediction; H = hw sync (periodic reset); C = compiler sync; B = hybrid"}
	for _, r := range runs {
		bars, err := barsFor(r, "U", "P", "H", "C", "B")
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, report.Row{Bench: r.W.Label, Bars: bars})
	}
	f.Text = report.RenderBars(f.Title, f.Rows, 50)
	return f, nil
}

// Fig11 — classifying violating loads by which scheme would have
// synchronized them, under four stall modes (U: stall for nothing,
// C: compiler marks, H: hardware table, B: both).
func Fig11(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "11", Title: "Figure 11: violated loads classified by synchronizing scheme"}
	rows := [][]string{{"benchmark", "mode", "violations", "neither", "comp-only", "hw-only", "both"}}
	for _, r := range runs {
		for _, md := range fig11Specs(r) {
			res, err := r.SimulateSpec(md)
			if err != nil {
				return nil, err
			}
			var total int64
			for _, n := range res.ViolBuckets {
				total += n
			}
			rows = append(rows, []string{
				r.W.Label, md.Policy.Name,
				fmt.Sprintf("%d", total),
				fmt.Sprintf("%d", res.ViolBuckets[sim.BucketNeither]),
				fmt.Sprintf("%d", res.ViolBuckets[sim.BucketCompiler]),
				fmt.Sprintf("%d", res.ViolBuckets[sim.BucketHardware]),
				fmt.Sprintf("%d", res.ViolBuckets[sim.BucketBoth]),
			})
		}
	}
	f.Text = f.Title + "\n\n" + report.Table(rows)
	return f, nil
}

// Fig12 — whole-program speedups for U, C, H, B.
func Fig12(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "12", Title: "Figure 12: whole-program speedup over sequential execution"}
	rows := [][]string{{"benchmark", "coverage", "U", "C", "H", "B"}}
	for _, r := range runs {
		cells := []string{r.W.Label, report.Pct(r.Coverage())}
		for _, l := range []string{"U", "C", "H", "B"} {
			res, err := r.Simulate(l)
			if err != nil {
				return nil, err
			}
			cells = append(cells, report.F2(r.ProgramSpeedup(res)))
		}
		rows = append(rows, cells)
	}
	f.Text = f.Title + "\n\n" + report.Table(rows)
	return f, nil
}

// Table2 — region coverage plus region/sequential/program speedups for
// the compiler-only and hybrid configurations.
func Table2(runs []*Run) (*Figure, error) {
	f := &Figure{ID: "T2", Title: "Table 2: region coverage and speedups (relative to sequential execution)"}
	rows := [][]string{{
		"benchmark", "coverage",
		"region C", "region B", "seq C", "seq B", "program C", "program B",
	}}
	for _, r := range runs {
		resC, err := r.Simulate("C")
		if err != nil {
			return nil, err
		}
		resB, err := r.Simulate("B")
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			r.W.Label, report.Pct(r.Coverage()),
			report.F2(r.RegionSpeedup(resC)), report.F2(r.RegionSpeedup(resB)),
			report.F2(r.SeqRegionSpeedup(resC)), report.F2(r.SeqRegionSpeedup(resB)),
			report.F2(r.ProgramSpeedup(resC)), report.F2(r.ProgramSpeedup(resB)),
		})
	}
	f.Text = f.Title + "\n\n" + report.Table(rows)
	return f, nil
}

// fig11Specs returns Figure 11's four stall-mode simulations for one
// benchmark. Stall-for-compiler modes run the transformed binary; the
// others run the baseline binary but keep the compiler marks.
func fig11Specs(r *Run) []SimSpec {
	marks := r.CompilerMarks()
	out := make([]SimSpec, 0, 4)
	for _, md := range []struct {
		label  string
		binary string
		pol    sim.Policy
	}{
		{"U", "base", sim.Policy{Name: "U", CompilerMarks: marks}},
		{"C", "ref", sim.Policy{Name: "C", CompilerMarks: marks}},
		{"H", "base", sim.Policy{Name: "H", HWSync: true, CompilerMarks: marks}},
		{"B", "ref", sim.Policy{Name: "B", HWSync: true, CompilerMarks: marks}},
	} {
		out = append(out, SimSpec{Run: r, Label: "fig11-" + md.label, Policy: md.pol, Binary: md.binary})
	}
	return out
}

// SimSpec is one (benchmark × policy) simulation unit: the granularity
// at which figure regeneration fans out across the job engine.
type SimSpec struct {
	Run    *Run
	Label  string     // result-cache label (unique per distinct policy)
	Policy sim.Policy // the policy to simulate
	Binary string     // "" = the binary the label selects; else base/train/ref
}

// Key returns the job-engine coalescing key for the spec.
func (sp SimSpec) Key() string { return "simulate/" + sp.Run.W.Name + "/" + sp.Label }

// LabelSpec returns the spec for a plain label-driven simulation
// (policy and binary both derived from the label). Every submitter of a
// named-policy job — Prewarm and the tlsd /simulate handler alike —
// must go through a SimSpec so identical work shares one engine key AND
// one result shape (*sim.Result); ad-hoc keys with a different return
// type would make coalesced joins type-unsafe.
func (r *Run) LabelSpec(label string) SimSpec {
	return SimSpec{Run: r, Label: label, Policy: r.policyFor(label)}
}

// labeledSpecs builds plain label-driven specs for a set of labels.
func labeledSpecs(r *Run, labels ...string) []SimSpec {
	out := make([]SimSpec, 0, len(labels))
	for _, l := range labels {
		out = append(out, r.LabelSpec(l))
	}
	return out
}

// SpecsFor returns every simulation the experiment needs over the given
// runs, one SimSpec per (benchmark × policy) pair. Fig7 (a pure profile
// analysis) needs none.
func SpecsFor(id string, runs []*Run) []SimSpec {
	var specs []SimSpec
	for _, r := range runs {
		switch id {
		case "2":
			specs = append(specs, labeledSpecs(r, "U", "O")...)
		case "6":
			specs = append(specs, labeledSpecs(r, "U")...)
			for _, th := range fig6Thresholds {
				specs = append(specs, SimSpec{Run: r, Label: "fig6-" + th.label,
					Policy: r.fig6Policy(th.label, th.frac)})
			}
		case "8":
			specs = append(specs, labeledSpecs(r, "U", "T", "C")...)
		case "9":
			specs = append(specs, labeledSpecs(r, "C", "E", "L")...)
		case "10":
			specs = append(specs, labeledSpecs(r, "U", "P", "H", "C", "B")...)
		case "11":
			specs = append(specs, fig11Specs(r)...)
		case "12":
			specs = append(specs, labeledSpecs(r, "U", "C", "H", "B")...)
		case "T2":
			specs = append(specs, labeledSpecs(r, "C", "B")...)
		}
	}
	return specs
}

// Prewarm fans every simulation the listed experiments need out through
// the job engine at (benchmark × policy) granularity, deduplicating
// specs shared between experiments. After Prewarm, the experiment
// functions assemble their figures entirely from cached results.
// progress (optional) is invoked once per completed pair.
func Prewarm(ctx context.Context, eng *jobs.Engine, runs []*Run, ids []string,
	progress func(bench, label string, d time.Duration, err error)) error {
	seen := make(map[string]bool)
	g := eng.NewGroup(ctx)
	for _, id := range ids {
		for _, sp := range SpecsFor(id, runs) {
			// A dead caller (deadline, disconnect) stops the fan-out
			// here instead of submitting the rest of the specs only for
			// each to fail the same way.
			if err := ctx.Err(); err != nil {
				return err
			}
			key := sp.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			sp := sp
			start := time.Now() //lint:ignore D001 progress-callback latency only; never reaches artifact bytes
			g.Go(key, func(jctx context.Context) (any, error) {
				if err := jctx.Err(); err != nil {
					return nil, err
				}
				return sp.Run.SimulateSpec(sp)
			}, func(_ any, err error) {
				if progress != nil {
					//lint:ignore D001 progress-callback latency only; never reaches artifact bytes
					progress(sp.Run.W.Name, sp.Label, time.Since(start), err)
				}
			})
		}
	}
	return g.Wait()
}

// Experiments maps figure/table IDs to their runners.
var Experiments = map[string]func([]*Run) (*Figure, error){
	"2": Fig2, "6": Fig6, "7": Fig7, "8": Fig8, "9": Fig9,
	"10": Fig10, "11": Fig11, "12": Fig12, "T2": Table2,
}

// ExperimentIDs lists the experiment identifiers in presentation order.
func ExperimentIDs() []string {
	return []string{"2", "6", "7", "8", "9", "10", "11", "12", "T2"}
}
