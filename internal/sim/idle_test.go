package sim

import (
	"testing"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// missChain returns n loads, each addressed by the previous one's result
// and each touching a fresh line, so every one misses to memory and
// nothing can issue until it returns.
func missChain(p *synthProg, n int, base int64) []trace.Event {
	out := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, mkEvent(p, ir.Load, base+int64(i)*4096, 0, 1, 1))
	}
	return out
}

// assertIterationBudget simulates tr under U. It checks that the run
// took at least minCycles, so the trace really is bound by misses, and
// that the simulation loop ran at most two iterations per event plus
// 100.
func assertIterationBudget(t *testing.T, tr *trace.ProgramTrace, minCycles int64) {
	t.Helper()
	m := newMachine(Input{Trace: tr, Policy: PolicyU()})
	m.runPrefix()
	m.run()
	events := int64(tr.Events())
	if m.res.TotalCycles < minCycles {
		t.Fatalf("%d cycles, want at least %d: the chains did not miss to memory", m.res.TotalCycles, minCycles)
	}
	budget := 2*events + 100
	t.Logf("%d iterations for %d events over %d cycles", m.iters, events, m.res.TotalCycles)
	if m.iters > budget {
		t.Errorf("%d loop iterations for %d events, budget %d: the simulator steps idle cycles one at a time", m.iters, events, budget)
	}
}

// TestIdleCycleIterationBudget pins idle-cycle skipping: simulation-loop
// iterations must scale with events, not with cycles. The trace is all
// memory stalls — a sequential chain of dependent misses, then a region
// whose epochs each run such a chain — so a loop that steps every cycle
// takes about MemLat (75) iterations per event.
func TestIdleCycleIterationBudget(t *testing.T) {
	p := newSynthProg()
	const seqLoads, epochs, epochLoads = 200, 8, 50
	ri := &trace.RegionInstance{RegionID: 0}
	for i := 0; i < epochs; i++ {
		ri.Epochs = append(ri.Epochs, &trace.Epoch{Index: i, Events: encode(missChain(p, epochLoads, 0x100000+int64(i)<<20))})
	}
	tr := &trace.ProgramTrace{Segments: []trace.Segment{
		{Seq: encode(missChain(p, seqLoads, 0x10000000))},
		{Region: ri},
	}}
	tr.Code = p.code()
	assertIterationBudget(t, tr, int64(DefaultMachine().MemLat)*seqLoads)
}

// TestWaitIterationBudget is the same budget for runs blocked on a
// wait: each epoch opens with a scalar wait that its producer signals
// only after its own chain of misses, so the epochs run one after
// another and every consumer waits through its producer's chain.
func TestWaitIterationBudget(t *testing.T) {
	p := newSynthProg()
	const epochs, epochLoads = 8, 50
	wait := p.NewInstr(ir.WaitScalar)
	wait.Dst, wait.Imm = 3, 1
	sig := p.NewInstr(ir.SignalScalar)
	sig.A, sig.Imm = 1, 1 // sends the chain's last result
	var evs [][]trace.Event
	for i := 0; i < epochs; i++ {
		e := append([]trace.Event{evFor(wait, 0, 0)}, missChain(p, epochLoads, 0x100000+int64(i)<<20)...)
		evs = append(evs, append(e, evFor(sig, 0, 0)))
	}
	assertIterationBudget(t, synthTrace(p, evs...), int64(DefaultMachine().MemLat)*epochs*epochLoads)
}
