package sim

import (
	"sync"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// Run pooling. A figure sweep simulates the same traces under a dozen
// policies, and every epoch of every region instance materializes one
// epochRun (three address tables, two maps and a register file). Runs
// are recycled here. The put side resets every table, clears every map,
// empties the register file and resets every scalar field, and a call
// frame's window is cleared when it is pushed, so a pooled run is
// indistinguishable from a freshly allocated one — which is also what
// keeps simulation deterministic under pooling, and what pool_test.go's
// contamination tests pin down. sync.Pool is shared across concurrently
// running machines (parallel variant simulation); it is safe for that
// because no object is ever put while referenced.

var runPool sync.Pool

// newRun returns a reset epochRun whose base frame is entered at cycle
// base, reusing a pooled run when available.
func (m *machine) newRun(epoch *trace.Epoch, cpu int, base int64) *epochRun {
	run, _ := runPool.Get().(*epochRun)
	if run == nil {
		run = &epochRun{
			signaled: make(map[int64]bool),
			sigBuf:   make(map[int64]int64),
		}
	}
	run.epoch = epoch
	run.rewind()
	run.cpu = cpu
	run.consumedGen = -1
	run.push(m.code.regs, base, ir.None)
	return run
}

// putRun recycles a finished (committed or locally-scoped) run. The
// caller must not touch it afterwards.
func putRun(run *epochRun) {
	run.regs, run.frames, run.cur, run.base = run.regs[:0], run.frames[:0], nil, 0
	run.loadLines.reset()
	run.storeLines.reset()
	run.storeWords.reset()
	clear(run.signaled)
	clear(run.sigBuf)
	run.epoch, run.stream = nil, trace.Events{}
	run.span = nil
	run.idx, run.di, run.gen, run.cpu = 0, 0, 0, 0
	run.seq = false
	run.si = 0
	run.slots = Slots{}
	run.finished = false
	run.finishCycle, run.lastComplete, run.stallUntil = 0, 0, 0
	run.stallFail, run.gated = false, false
	run.consumedGen = 0
	run.sigBufPeak = 0
	run.mispredicted, run.predictBan = false, false
	run.mispredictPCs = run.mispredictPCs[:0]
	run.trainings = run.trainings[:0]
	run.scalarWait, run.memWait, run.hwWait = 0, 0, 0
	runPool.Put(run)
}

// The cache arrays of the paper's machine come to 590 KB, which a cold
// simulation of a small program would otherwise allocate and zero for
// a few thousand accesses. Hierarchies are recycled here, emptied when
// they are put back; a pooled one is reused only for the identical
// MachineConfig, and dropped otherwise.
var hierPool sync.Pool

// getHierarchy returns an empty hierarchy for cfg.
func getHierarchy(cfg MachineConfig) *hierarchy {
	if h, _ := hierPool.Get().(*hierarchy); h != nil && h.cfg == cfg {
		return h
	}
	return newHierarchy(cfg)
}

// putHierarchy empties h and recycles it. The caller must not touch it
// afterwards.
func putHierarchy(h *hierarchy) {
	for i := range h.l1 {
		h.l1[i].reset()
	}
	h.l2.reset()
	hierPool.Put(h)
}
