package sim

import (
	"reflect"
	"testing"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// Pool-contamination tests for the run and cache pools, mirroring
// internal/interp/pool_test.go: dirty an object, recycle it, re-acquire
// it, and assert it is indistinguishable from a fresh allocation. This
// is the invariant that keeps simulation deterministic under pooling.
//
// The register file is one slice of per-frame windows that is truncated,
// not cleared, when a run is recycled, restarted or leaves a call, so a
// window pushed over slots an earlier frame wrote must be cleared on
// push; otherwise a stale readiness cycle resurfaces. dirtyReg is a
// high register; every path that opens a window is checked for it.
const dirtyReg ir.Reg = 40

// testRegs is the register window of the machines these tests build.
const testRegs = 48

// poolMachine returns a machine with just enough state to make, squash
// and recycle runs.
func poolMachine() *machine {
	return &machine{
		code: &codeTable{regs: testRegs},
		res:  &Result{ViolByKind: make(map[string]int64)},
	}
}

// assertFresh fails unless run's top frame is a window of testRegs
// registers, none written, entered at base with return register
// callDst: an operand check would see only the base cycle.
func assertFresh(t *testing.T, what string, run *epochRun, base int64, callDst ir.Reg) {
	t.Helper()
	if len(run.cur) != testRegs {
		t.Fatalf("%s: window of %d registers, want %d", what, len(run.cur), testRegs)
	}
	for r, v := range run.cur {
		if v != 0 {
			t.Errorf("%s: r%d reads ready at %d, want never written", what, r, v)
		}
	}
	top := run.frames[len(run.frames)-1]
	if run.base != base || top.base != base || top.callDst != callDst {
		t.Errorf("%s: base %d (frame %d), callDst %v; want base %d, callDst %v", what, run.base, top.base, top.callDst, base, callDst)
	}
}

// assertBaseFrameOnly fails unless run's register file holds exactly
// its base frame's window.
func assertBaseFrameOnly(t *testing.T, what string, run *epochRun) {
	t.Helper()
	if len(run.frames) != 1 || run.frames[0].off != 0 || len(run.regs) != testRegs {
		t.Fatalf("%s: %d frames over %d registers, want exactly the base frame's %d", what, len(run.frames), len(run.regs), testRegs)
	}
}

// dirtyKeys is how many keys dirtyRun adds to each address table:
// enough to grow it past its first size.
const dirtyKeys = 2 * addrTableMin

// dirtyKey is the k-th key dirtyRun adds to the table at base.
func dirtyKey(base int64, k int) int64 { return base + int64(k)*32 }

// dirtyRun fills every recyclable field of an epochRun with junk.
func dirtyRun(run *epochRun) {
	run.idx, run.gen, run.cpu = 7, 3, 5
	run.seq = true
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
	run.cur[7], run.cur[dirtyReg] = 1234, 4321
	run.push(testRegs, 99, 3)
	run.cur[dirtyReg] = 5678
}

func TestRunPoolNoContamination(t *testing.T) {
	m := poolMachine()
	run := m.newRun(&trace.Epoch{Index: 1}, 2, 0)
	dirtyRun(run)
	if n := len(run.loadLines.slots); n <= addrTableMin {
		t.Fatalf("dirtyRun left the address tables at %d slots, want them grown", n)
	}
	putRun(run)

	got := m.newRun(&trace.Epoch{Index: 0}, 0, 0)
	if got.idx != 0 || got.gen != 0 || got.cpu != 0 || got.seq || !got.done() {
		t.Errorf("recycled run leaked position state: idx=%d gen=%d cpu=%d seq=%v done=%v", got.idx, got.gen, got.cpu, got.seq, got.done())
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
	assertBaseFrameOnly(t, "recycled run", got)
	assertFresh(t, "recycled run's base frame", got, 0, ir.None)
}

// TestFramePoolNoContamination checks the call path: a callee window
// pushed over slots that deeper, since popped, frames wrote reads every
// register as never written, and a pop restores the caller's window.
func TestFramePoolNoContamination(t *testing.T) {
	m := poolMachine()
	run := m.newRun(&trace.Epoch{Index: 0}, 0, 5)
	run.cur[1] = 6
	run.push(testRegs, 50, 2)
	run.cur[1], run.cur[2], run.cur[dirtyReg] = 99, 100, 101
	run.push(testRegs, 60, 4)
	run.cur[dirtyReg] = 102
	if got := run.pop(); got != 4 {
		t.Errorf("pop returned callDst %v, want 4", got)
	}
	if got := run.pop(); got != 2 {
		t.Errorf("pop returned callDst %v, want 2", got)
	}
	if run.cur[1] != 6 || run.base != 5 {
		t.Errorf("caller window after the pops: r1 ready at %d, base %d; want 6 and 5", run.cur[1], run.base)
	}
	run.push(testRegs, 70, ir.None)
	assertFresh(t, "callee pushed after a pop", run, 70, ir.None)
	run.push(testRegs, 80, 3)
	assertFresh(t, "nested callee pushed after a pop", run, 80, 3)
	putRun(run)
}

// TestRestartForgetsBaseFrameRegisters checks the other reset path: a
// squash keeps the run and restarts its base frame for replay, so a
// register the squashed attempt wrote, in any frame, must not survive
// into it.
func TestRestartForgetsBaseFrameRegisters(t *testing.T) {
	m := poolMachine()
	run := m.newRun(&trace.Epoch{Index: 0}, 0, 0)
	run.cur[1], run.cur[dirtyReg] = 3, 900
	run.push(testRegs, 10, 1)
	run.cur[dirtyReg] = 950

	m.cycle = 20
	m.restart(run)
	assertBaseFrameOnly(t, "restarted run", run)
	assertFresh(t, "restarted base frame", run, 20, ir.None)
	run.push(testRegs, 30, 1)
	assertFresh(t, "callee of the restarted run", run, 30, 1)
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
