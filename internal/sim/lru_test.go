package sim

import (
	"testing"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// TestSequentialLoadRefreshesViolationTable: under P, a load in a
// sequential segment that the violation table tracks refreshes its LRU
// tick, which decides the next eviction and so how a later violation is
// classified. With two table entries and no periodic reset:
//
//  1. regions record violations on A, then B (A is now the LRU entry);
//  2. a sequential segment loads A (B is now the LRU entry);
//  3. a region violates on C, evicting B, then another on A.
//
// A's second violation lands in BucketHardware only because the
// sequential load kept A in the table; without the refresh, C evicts A
// and all four violations land in BucketNeither.
func TestSequentialLoadRefreshesViolationTable(t *testing.T) {
	p := newSynthProg()
	const addrA, addrB, addrC = 0x20000, 0x21000, 0x22000
	newLoad := func() *ir.Instr {
		in := p.NewInstr(ir.Load)
		in.Dst, in.A = 2, 0
		return in
	}
	loadA, loadB, loadC := newLoad(), newLoad(), newLoad()
	// violation builds a two-epoch region whose second epoch loads addr
	// with ld right away, before the first epoch's store to addr
	// executes: one eager violation on ld. Both epochs finish before the
	// replay, so the replay does not violate again.
	violation := func(ld *ir.Instr, addr int64) trace.Segment {
		e0 := append(filler(p, 80), mkEvent(p, ir.Store, addr, 1, ir.None, 0, 1))
		e1 := append([]trace.Event{evFor(ld, addr, 0)}, filler(p, 40)...)
		return trace.Segment{Region: &trace.RegionInstance{Epochs: []*trace.Epoch{
			{Index: 0, Events: encode(e0)},
			{Index: 1, Events: encode(e1)},
		}}}
	}
	tr := &trace.ProgramTrace{Segments: []trace.Segment{
		violation(loadA, addrA),
		violation(loadB, addrB),
		{Seq: encode(append([]trace.Event{evFor(loadA, addrA, 0)}, filler(p, 8)...))},
		violation(loadC, addrC),
		violation(loadA, addrA),
	}}
	tr.Code = p.code()
	mach := DefaultMachine()
	mach.HWTableSize, mach.HWResetEpochs = 2, 0
	r := Simulate(Input{Trace: tr, Policy: PolicyP(), Mach: mach})
	if r.Violations != 4 {
		t.Fatalf("violations = %d, want 4 (one per region): %v", r.Violations, r.ViolByKind)
	}
	if got := r.ViolBuckets[BucketHardware]; got != 1 {
		t.Errorf("hardware-bucket violations = %d, want 1 (A's second violation): buckets %v", got, r.ViolBuckets)
	}
	if got := r.ViolBuckets[BucketNeither]; got != 3 {
		t.Errorf("neither-bucket violations = %d, want 3 (A, B, C first seen): buckets %v", got, r.ViolBuckets)
	}
}
