package core_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/memsync"
	"tlssync/internal/progen"
	"tlssync/internal/sim"
)

// The pipeline's byte-reproducibility invariant: the Workers knob may
// change wall-clock time only, never an artifact. This suite compiles
// generated programs at several worker counts and compares a
// fingerprint covering everything the pipeline emits — the four
// binaries' printed IR, region decisions, memsync summaries, verifier
// reports, the simulated results of every policy-relevant binary, and
// the sequential baseline. Run it under -race to also catch
// unsynchronized sharing between the parallel stages.

// diffWorkerCounts are the counts compared against the serial path.
var diffWorkerCounts = []int{2, 8}

// diffConfig is the canonical compile configuration for seed programs.
func diffConfig(src string, workers int) core.Config {
	return core.Config{
		Source:     src,
		TrainInput: []int64{2, 7, 1},
		RefInput:   []int64{3, 1, 4, 1, 5},
		Seed:       42,
		MaxSteps:   2_000_000,
		Workers:    workers,
	}
}

// buildFingerprint renders every observable output of a compile (and
// of the simulations downstream of it) into one byte string.
func buildFingerprint(t *testing.T, cfg core.Config) string {
	t.Helper()
	var sb strings.Builder
	b, err := core.Compile(cfg)
	if err != nil {
		// Errors must be deterministic too (lowest-index selection).
		return "compile error: " + err.Error()
	}

	fmt.Fprintf(&sb, "== plain ==\n%s\n== base ==\n%s\n== train ==\n%s\n== ref ==\n%s\n",
		b.Plain, b.Base, b.Train, b.Ref)
	fmt.Fprintf(&sb, "== decisions ==\n%+v\n", b.Decisions)
	for _, r := range b.MemInfoTrain {
		fmt.Fprintf(&sb, "memsync train: %s\n", memsync.Summary(r))
	}
	for _, r := range b.MemInfoRef {
		fmt.Fprintf(&sb, "memsync ref: %s\n", memsync.Summary(r))
	}
	for _, name := range []string{"plain", "base", "train", "ref"} {
		if rep := b.VerifyReports[name]; rep != nil {
			fmt.Fprintf(&sb, "== verify %s ==\n%s\n", name, rep)
		}
	}

	// Downstream: trace each binary and simulate the policies that read
	// it, plus the sequential baseline off the plain trace.
	plainTr, err := b.Trace(b.Plain, cfg.RefInput)
	if err != nil {
		t.Fatalf("plain trace: %v", err)
	}
	seq := sim.SimulateSequentialRegions(sim.Input{Trace: plainTr})
	sj, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "== seq ==\n%s\n", sj)

	for _, pc := range []struct {
		binary string
		pol    sim.Policy
	}{
		{"base", sim.PolicyU()},
		{"train", sim.PolicyC("T")},
		{"ref", sim.PolicyC("C")},
		{"ref", sim.PolicyE()},
	} {
		p := b.Base
		switch pc.binary {
		case "train":
			p = b.Train
		case "ref":
			p = b.Ref
		}
		tr, err := b.Trace(p, cfg.RefInput)
		if err != nil {
			t.Fatalf("%s trace: %v", pc.binary, err)
		}
		res := sim.Simulate(sim.Input{Trace: tr, Policy: pc.pol})
		rj, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "== sim %s/%s ==\n%s\n", pc.binary, pc.pol.Name, rj)
	}
	return sb.String()
}

func TestParallelDiffDeterministic(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			src := progen.Generate(uint64(seed), progen.DefaultConfig())
			want := buildFingerprint(t, diffConfig(src, 1))
			for _, workers := range diffWorkerCounts {
				got := buildFingerprint(t, diffConfig(src, workers))
				if got != want {
					t.Errorf("workers=%d: fingerprint diverged from -j1\n--- first difference ---\n%s",
						workers, firstDiff(want, got))
				}
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n-j1: %s\n-jN: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}

// TestWorkersExcludedFromCanonicalConfig pins the store-key invariant:
// Workers must not appear in the JSON form that content-addressed cache
// keys hash, or -j1 and -jN would populate disjoint cache entries.
func TestWorkersExcludedFromCanonicalConfig(t *testing.T) {
	a, err := json.Marshal(diffConfig("func main() { print(1); }", 1).Canonical())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(diffConfig("func main() { print(1); }", 8).Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("Workers leaked into the canonical config JSON:\n%s\n%s", a, b)
	}
	if strings.Contains(string(a), "Workers") {
		t.Fatalf("canonical config JSON mentions Workers: %s", a)
	}
}
