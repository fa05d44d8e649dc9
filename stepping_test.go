package tlssync

import (
	"encoding/json"
	"testing"

	"tlssync/internal/sim"
	"tlssync/internal/workloads"
)

// exploreRoundSeed is the seed of the first round perfbench's explore
// workload serves at --seed 1 (roundSeed(1, 0) in perfbench/plan.go).
// Its first programs seed FuzzSimulateStepping, so the fuzz target
// starts from the synthetic programs tlsd simulates cold.
const exploreRoundSeed = 5206558337466748783

// exploreCorpus is how many of that round's programs seed the corpus.
const exploreCorpus = 8

// FuzzSimulateStepping checks the simulator's idle-cycle skipping and
// its restored warm-up against plain cycle stepping on generated
// programs. It compiles workloads.Synth(seed) once, then requires every
// policy's sim.Result and the C timeline to be byte-identical whether
// the simulator restores the trace's Warmup and jumps idle cycles
// (sim.Simulate with Input.Warmup), simulates the leading segments
// itself (sim.Simulate without it) or steps each cycle of the whole
// trace (sim.SimulateEveryCycle). The seed corpus runs in plain go
// test; make fuzz explores further.
func FuzzSimulateStepping(f *testing.F) {
	for _, w := range workloads.SynthSet(exploreRoundSeed, exploreCorpus) {
		seed, _ := workloads.SynthSeed(w.Name)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := workloads.Synth(seed)
		r, err := NewRun(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		check := func(label string, in sim.Input) {
			t.Helper()
			warm := mustJSON(t, sim.Simulate(in))
			step := mustJSON(t, sim.SimulateEveryCycle(in))
			in.Warmup = nil
			cold := mustJSON(t, sim.Simulate(in))
			if string(cold) != string(step) {
				t.Errorf("%s/%s: skipping idle cycles changed the result\nskip: %s\nstep: %s", w.Name, label, cold, step)
			}
			if string(warm) != string(cold) {
				t.Errorf("%s/%s: restoring the warm-up changed the result\nwarm: %s\ncold: %s", w.Name, label, warm, cold)
			}
		}
		for _, label := range PolicyLabels {
			tr, warm, err := r.traceFor(r.binaryFor(label))
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, label, err)
			}
			in := sim.Input{Trace: tr, Warmup: warm, Policy: r.policyFor(label)}
			check(label, in)
			if label == "C" {
				in.CollectTimeline = true
				check("C timeline", in)
			}
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
