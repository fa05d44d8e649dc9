package sim

import (
	"testing"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// Pool-contamination tests for the scoreboard pools, mirroring
// internal/interp/pool_test.go: dirty an object, recycle it, re-acquire
// it, and assert it is indistinguishable from a fresh allocation. This
// is the invariant that keeps simulation deterministic under pooling.
//
// The register scoreboard is a dense slice grown on write, so it has a
// failure mode a map did not: a reset that truncates without clearing
// leaves a stale readiness cycle in the spare capacity, and a later
// write that regrows the slice over it resurrects the stale value.
// dirtyReg is that high register; every reset path is checked for it.
const dirtyReg ir.Reg = 40

// assertUnset fails unless r reads as never written in f: an operand
// check would see only the frame's base cycle.
func assertUnset(t *testing.T, what string, f *frameSB, r ir.Reg) {
	t.Helper()
	if got := f.readyAt(r); got != 0 {
		t.Errorf("%s: r%d reads ready at %d, want unset (base %d)", what, r, got, f.base)
	}
	for i, v := range f.ready[len(f.ready):cap(f.ready)] {
		if v != 0 {
			t.Errorf("%s: spare scoreboard slot r%d holds %d, want 0", what, len(f.ready)+i, v)
		}
	}
}

// regrow writes r1, then a register past dirtyReg, so the slice grows
// back over the slot dirtyReg occupied before the reset.
func regrow(t *testing.T, what string, f *frameSB) {
	t.Helper()
	f.setReady(1, f.base+1)
	assertUnset(t, what+" after writing r1", f, dirtyReg)
	f.setReady(dirtyReg+7, f.base+2)
	assertUnset(t, what+" after regrowing past r40", f, dirtyReg)
}

// dirtyRun fills every recyclable field of an epochRun with junk.
func dirtyRun(run *epochRun) {
	run.idx, run.gen, run.cpu = 7, 3, 5
	run.slots = Slots{Busy: 11, Fail: 13}
	run.finished = true
	run.finishCycle, run.lastComplete, run.stallUntil = 101, 102, 103
	run.stallFail = true
	run.loadLines[0x1000] = loadMark{}
	run.storeLines[0x2000] = 9
	run.storeWords[0x3000] = true
	run.consumedGen = 4
	run.signaled[5] = true
	run.sigBuf[0x4000] = 6
	run.sigBufPeak = 7
	run.mispredicted, run.predictBan = true, true
	run.mispredictPCs = append(run.mispredictPCs, 42)
	run.trainings = append(run.trainings, pcVal{})
	run.scalarWait, run.memWait, run.hwWait = 1, 2, 3
	run.span = &EpochSpan{}
	run.frames = append(run.frames, getFrameSB(99, 3))
	run.frames[0].setReady(7, 1234)
	run.frames[0].setReady(dirtyReg, 4321)
	run.frames[1].setReady(dirtyReg, 5678)
}

func TestRunPoolNoContamination(t *testing.T) {
	m := &machine{}
	run := m.newRun(&trace.Epoch{Index: 1}, 2)
	dirtyRun(run)
	putRun(run)

	got := m.newRun(&trace.Epoch{Index: 0}, 0)
	if got.idx != 0 || got.gen != 0 || got.cpu != 0 {
		t.Errorf("recycled run leaked position state: idx=%d gen=%d cpu=%d", got.idx, got.gen, got.cpu)
	}
	if got.slots != (Slots{}) {
		t.Errorf("recycled run leaked slot accounting: %+v", got.slots)
	}
	if got.finished || got.finishCycle != 0 || got.lastComplete != 0 || got.stallUntil != 0 || got.stallFail {
		t.Error("recycled run leaked stall/finish state")
	}
	if len(got.loadLines) != 0 || len(got.storeLines) != 0 || len(got.storeWords) != 0 {
		t.Error("recycled run leaked dependence-tracking maps")
	}
	if got.consumedGen != -1 || len(got.signaled) != 0 || len(got.sigBuf) != 0 || got.sigBufPeak != 0 {
		t.Error("recycled run leaked synchronization state")
	}
	if got.mispredicted || got.predictBan || len(got.mispredictPCs) != 0 || len(got.trainings) != 0 {
		t.Error("recycled run leaked prediction state")
	}
	if got.scalarWait != 0 || got.memWait != 0 || got.hwWait != 0 {
		t.Error("recycled run leaked stall accounting")
	}
	if got.span != nil {
		t.Error("recycled run leaked its timeline span")
	}
	if len(got.frames) != 1 {
		t.Fatalf("recycled run has %d frames, want exactly the base frame", len(got.frames))
	}
	f := got.frames[0]
	if len(f.ready) != 0 || f.base != 0 || f.callDst != ir.None {
		t.Errorf("recycled run's base frame leaked: ready=%v base=%d callDst=%v", f.ready, f.base, f.callDst)
	}
	regrow(t, "recycled run's base frame", f)
}

func TestFramePoolNoContamination(t *testing.T) {
	f := getFrameSB(50, 2)
	f.setReady(1, 99)
	f.setReady(2, 100)
	f.setReady(dirtyReg, 101)
	putFrameSB(f)

	got := getFrameSB(7, ir.None)
	if len(got.ready) != 0 {
		t.Errorf("recycled frame leaked register readiness: %v", got.ready)
	}
	if got.base != 7 || got.callDst != ir.None {
		t.Errorf("getFrameSB did not apply requested state: base=%d callDst=%v", got.base, got.callDst)
	}
	regrow(t, "recycled frame", got)
}

// TestRestartForgetsBaseFrameRegisters checks the other reset path: a
// squash keeps the run's base frame in place and clears it for replay,
// so a register the squashed attempt wrote must not survive into it.
func TestRestartForgetsBaseFrameRegisters(t *testing.T) {
	m := &machine{res: &Result{ViolByKind: make(map[string]int64)}}
	run := m.newRun(&trace.Epoch{Index: 0}, 0)
	run.frames[0].setReady(1, 3)
	run.frames[0].setReady(dirtyReg, 900)
	run.frames = append(run.frames, getFrameSB(10, 1))
	run.frames[1].setReady(dirtyReg, 950)

	m.cycle = 20
	m.restart(run)
	if len(run.frames) != 1 {
		t.Fatalf("restarted run has %d frames, want exactly the base frame", len(run.frames))
	}
	base := run.frames[0]
	if len(base.ready) != 0 || base.base != 20 || base.callDst != ir.None {
		t.Errorf("restarted base frame: ready=%v base=%d callDst=%v, want empty at base 20", base.ready, base.base, base.callDst)
	}
	regrow(t, "restarted base frame", base)
	putRun(run)
}
