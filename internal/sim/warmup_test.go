package sim

import (
	"encoding/json"
	"testing"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// sameSetStride is the address stride that maps lines to one L1 set and
// one L2 set of the default machine: a multiple of both caches' set
// count times the line size.
const sameSetStride = 8192 * 32

// loadChain returns a load of each address in turn, each one's address
// register the previous one's result, so every latency adds to the
// cycle count and a hit that should have missed (or the reverse) shows.
func loadChain(p *synthProg, addrs ...int64) []trace.Event {
	out := make([]trace.Event, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, mkEvent(p, ir.Load, a, 0, 1, 1))
	}
	return out
}

// warmupTrace is a trace whose two leading sequential segments load
// five lines of one L1 set (two ways) and one L2 set (four ways), a
// re-touch in between, so LRU order, not fill order, picks the victims.
// The region's first epoch, on CPU 0, then loads a new line of the set,
// which evicts the least recently used line of each cache, and re-touches
// the lines around it, so a wrong victim turns a hit into a miss or the
// reverse. A trailing sequential segment touches them once more.
func warmupTrace() *trace.ProgramTrace {
	p := newSynthProg()
	line := func(k int64) int64 { return 0x100000 + k*sameSetStride }
	a, b, c, d, e, f, g := line(0), line(1), line(2), line(3), line(4), line(5), line(6)
	tr := &trace.ProgramTrace{Segments: []trace.Segment{
		{Seq: encode(loadChain(p, a, b, c, d))},
		{Seq: encode(loadChain(p, a, e, b))},
		{Region: &trace.RegionInstance{Epochs: []*trace.Epoch{
			{Index: 0, Events: encode(loadChain(p, f, e, d, g, a, c, b, f))},
			{Index: 1, Events: encode(append(filler(p, 8), loadChain(p, line(7))...))},
		}}},
		{Seq: encode(loadChain(p, e, d, c, b, a))},
	}}
	tr.Code = p.code()
	return tr
}

// TestWarmupRestoresPrefixExactly: restoring the Warmup must leave every
// result byte as simulating the prefix does, under each policy and with
// timelines on, and both must match stepping every cycle.
func TestWarmupRestoresPrefixExactly(t *testing.T) {
	tr := warmupTrace()
	w := NewWarmup(tr, MachineConfig{})
	if w.next != 2 {
		t.Fatalf("the prefix ends before segment %d, want 2", w.next)
	}
	if got := len(w.l1[0].slots); got != 2 {
		t.Fatalf("CPU 0's L1 holds %d lines after the prefix, want 2 (one full set)", got)
	}
	if got := len(w.l2.slots); got != 4 {
		t.Fatalf("L2 holds %d lines after the prefix, want 4 (one full set)", got)
	}
	for _, pol := range []Policy{PolicyU(), PolicyO(), PolicyH(), PolicyP()} {
		in := Input{Trace: tr, Policy: pol, CollectTimeline: true}
		cold := mustMarshal(t, Simulate(in))
		step := mustMarshal(t, SimulateEveryCycle(in))
		in.Warmup = w
		warm := mustMarshal(t, Simulate(in))
		if warm != cold {
			t.Errorf("%s: restoring the warm-up changed the result\nwarm: %s\ncold: %s", pol.Name, warm, cold)
		}
		if step != cold {
			t.Errorf("%s: skipping idle cycles changed the result\nskip: %s\nstep: %s", pol.Name, cold, step)
		}
	}
}

// TestWarmupRejectsAnotherTraceOrMachine: a Warmup restores only into a
// simulation of the trace and machine it was built for; the zero
// machine stands for DefaultMachine on either side.
func TestWarmupRejectsAnotherTraceOrMachine(t *testing.T) {
	tr := warmupTrace()
	w := NewWarmup(tr, MachineConfig{})
	Simulate(Input{Trace: tr, Policy: PolicyU(), Mach: DefaultMachine(), Warmup: w})

	other := DefaultMachine()
	other.L2Lat++
	for name, in := range map[string]Input{
		"another trace":   {Trace: warmupTrace(), Policy: PolicyU(), Warmup: w},
		"another machine": {Trace: tr, Policy: PolicyU(), Mach: other, Warmup: w},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Simulate accepted the Warmup", name)
				}
			}()
			Simulate(in)
		}()
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
