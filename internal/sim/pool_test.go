package sim

import (
	"reflect"
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

// dirtyKeys is how many keys dirtyRun adds to each address table:
// enough to grow it past its first size.
const dirtyKeys = 2 * addrTableMin

// dirtyKey is the k-th key dirtyRun adds to the table at base.
func dirtyKey(base int64, k int) int64 { return base + int64(k)*32 }

// dirtyRun fills every recyclable field of an epochRun with junk.
func dirtyRun(run *epochRun) {
	run.idx, run.n, run.gen, run.cpu = 7, 8, 3, 5
	run.slots = Slots{Busy: 11, Fail: 13}
	run.finished = true
	run.finishCycle, run.lastComplete, run.stallUntil = 101, 102, 103
	run.stallFail, run.gated = true, true
	for k := 0; k < dirtyKeys; k++ {
		run.loadLines.add(dirtyKey(0x1000, k), loadMark{cycle: 1, pc: 2})
		run.storeLines.add(dirtyKey(0x2000, k), 9)
		run.storeWords.add(dirtyKey(0x3000, k), struct{}{})
	}
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
	if n := len(run.loadLines.slots); n <= addrTableMin {
		t.Fatalf("dirtyRun left the address tables at %d slots, want them grown", n)
	}
	putRun(run)

	got := m.newRun(&trace.Epoch{Index: 0}, 0)
	if got.idx != 0 || got.n != 0 || got.gen != 0 || got.cpu != 0 {
		t.Errorf("recycled run leaked position state: idx=%d n=%d gen=%d cpu=%d", got.idx, got.n, got.gen, got.cpu)
	}
	if got.slots != (Slots{}) {
		t.Errorf("recycled run leaked slot accounting: %+v", got.slots)
	}
	if got.finished || got.finishCycle != 0 || got.lastComplete != 0 || got.stallUntil != 0 || got.stallFail || got.gated {
		t.Error("recycled run leaked stall/finish state")
	}
	if got.loadLines.len() != 0 || got.storeLines.len() != 0 || got.storeWords.len() != 0 {
		t.Error("recycled run leaked dependence-tracking entries")
	}
	// With one key added, lookups probe the slots the dirty keys used.
	got.loadLines.add(dirtyKey(0x1000, dirtyKeys), loadMark{})
	got.storeLines.add(dirtyKey(0x2000, dirtyKeys), 0)
	got.storeWords.add(dirtyKey(0x3000, dirtyKeys), struct{}{})
	for k := 0; k < dirtyKeys; k++ {
		if got.loadLines.has(dirtyKey(0x1000, k)) || got.storeLines.has(dirtyKey(0x2000, k)) || got.storeWords.has(dirtyKey(0x3000, k)) {
			t.Fatalf("recycled run still holds dirty key %d", k)
		}
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

// dirtyHierarchy touches every tag, LRU stamp and tick of h.
func dirtyHierarchy(h *hierarchy) {
	dirty := func(c *cache) {
		for i := range c.tags {
			c.tags[i], c.lru[i] = int64(i)+7, int64(i)+9
		}
		c.tick = 1234
	}
	dirty(&h.l2)
	for i := range h.l1 {
		dirty(&h.l1[i])
	}
}

// TestHierarchyPoolNoContamination checks the cache pool: a hierarchy
// dirtied in every tag, LRU stamp and tick, then put back, must come
// out equal to a fresh one, and a pooled hierarchy built for another
// MachineConfig must never be handed out.
func TestHierarchyPoolNoContamination(t *testing.T) {
	cfg := DefaultMachine()
	h := getHierarchy(cfg)
	dirtyHierarchy(h)
	putHierarchy(h)
	if got, want := getHierarchy(cfg), newHierarchy(cfg); !reflect.DeepEqual(got, want) {
		t.Error("a recycled hierarchy differs from a fresh one")
	}

	other := cfg
	other.L1Sets, other.LineSize = 64, 8
	h = getHierarchy(other)
	dirtyHierarchy(h)
	putHierarchy(h)
	for i := 0; i < 4; i++ {
		got := getHierarchy(cfg)
		if got == h || got.cfg != cfg {
			t.Fatalf("getHierarchy(%+v) returned a hierarchy built for %+v", cfg, got.cfg)
		}
		if !reflect.DeepEqual(got, newHierarchy(cfg)) {
			t.Error("getHierarchy returned a hierarchy that differs from a fresh one")
		}
		putHierarchy(got)
	}
	// Latencies are part of the config too: a pooled hierarchy must not
	// answer with another machine's L2 latency.
	slow := cfg
	slow.L2Lat = 99
	putHierarchy(getHierarchy(cfg))
	if got := getHierarchy(slow); got.cfg.L2Lat != 99 {
		t.Errorf("hierarchy for L2Lat 99 reports L2Lat %d", got.cfg.L2Lat)
	}
}

// TestMachineRejectsNonPowerOfTwoGeometry: cache sets are indexed by
// shift and mask, so a geometry that is not a power of two must be
// refused rather than silently mapped onto the wrong sets.
func TestMachineRejectsNonPowerOfTwoGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*MachineConfig)
	}{
		{"LineSize 24", func(m *MachineConfig) { m.LineSize = 24 }},
		{"L1Sets 500", func(m *MachineConfig) { m.L1Sets = 500 }},
		{"L2Sets 3", func(m *MachineConfig) { m.L2Sets = 3 }},
		{"L2Sets 0", func(m *MachineConfig) { m.L2Sets = 0 }},
	} {
		mach := DefaultMachine()
		c.set(&mach)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: newMachine accepted the geometry", c.name)
				}
			}()
			newMachine(Input{Trace: &trace.ProgramTrace{}, Mach: mach})
		}()
	}
	mach := DefaultMachine()
	mach.LineSize, mach.L1Sets, mach.L2Sets = 8, 1, 1
	if err := checkGeometry(mach); err != nil {
		t.Errorf("8-byte lines with one set each: %v", err)
	}
}
