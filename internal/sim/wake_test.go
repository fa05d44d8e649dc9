package sim

import (
	"encoding/json"
	"testing"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// Hand-built traces for the idle-cycle wake-ups that generated programs
// do not reach. Each requires Simulate, which jumps idle cycles, to
// match SimulateEveryCycle, which steps each one, byte for byte with
// timelines on, so a wake-up that lands one cycle late shows in the
// spans, the slot breakdown or the cycle count.

// assertSteppingMatches fails unless skipping idle cycles leaves tr's
// result unchanged under pol.
func assertSteppingMatches(t *testing.T, tr *trace.ProgramTrace, pol Policy) *Result {
	t.Helper()
	in := Input{Trace: tr, Policy: pol, CollectTimeline: true}
	skipRes := Simulate(in)
	skip, err := json.Marshal(skipRes)
	if err != nil {
		t.Fatal(err)
	}
	step, err := json.Marshal(SimulateEveryCycle(in))
	if err != nil {
		t.Fatal(err)
	}
	if string(skip) != string(step) {
		t.Errorf("skipping idle cycles changed the result\nskip: %s\nstep: %s", skip, step)
	}
	return skipRes
}

// missThenUse is a load that misses to memory followed by an operation
// that reads its result: the run issues the load and stalls on the use
// for the whole miss.
func missThenUse(p *synthProg, addr int64) []trace.Event {
	return []trace.Event{
		mkEvent(p, ir.Load, addr, 0, 1, 0),
		mkEvent(p, ir.Bin, 0, 0, 2, 1),
	}
}

// TestSteppingSpawnWhileAllStalled: every epoch stalls on a miss in its
// first cycle, so each later epoch spawns while every live run is
// stalled, and the skip must land exactly on the spawn cycle.
func TestSteppingSpawnWhileAllStalled(t *testing.T) {
	p := newSynthProg()
	var epochs [][]trace.Event
	for i := 0; i < 3; i++ {
		epochs = append(epochs, missThenUse(p, 0x100000+int64(i)<<12))
	}
	r := assertSteppingMatches(t, synthTrace(p, epochs...), PolicyU())
	if r.Regions[0].Epochs != 3 || r.Violations != 0 {
		t.Errorf("want three clean commits, got %d epochs and %d violations", r.Regions[0].Epochs, r.Violations)
	}
}

// TestSteppingWaitOpenedByImplicitNull: epoch 2 waits on a channel its
// producer, epoch 1, never signals. Epoch 1 finishes at once, but epoch
// 0 is still the oldest, stalled on a chain of misses, so only epoch
// 1's implicit NULL, CommLat cycles after it finished, opens the wait.
func TestSteppingWaitOpenedByImplicitNull(t *testing.T) {
	p := newSynthProg()
	wait := p.NewInstr(ir.WaitScalar)
	wait.Dst, wait.Imm = 3, 7
	e0 := missChain(p, 3, 0x200000)
	e1 := filler(p, 2)
	e2 := []trace.Event{evFor(wait, 0, 0), mkEvent(p, ir.Bin, 0, 0, 4, 3)}
	r := assertSteppingMatches(t, synthTrace(p, e0, e1, e2), PolicyU())
	if r.Regions[0].Epochs != 3 || r.ScalarWaitCycles == 0 {
		t.Errorf("want three commits and a blocked wait, got %d epochs and %d wait cycles", r.Regions[0].Epochs, r.ScalarWaitCycles)
	}
}
