package sim

import (
	"fmt"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// Input bundles what a simulation needs.
type Input struct {
	Trace  *trace.ProgramTrace
	Policy Policy
	Mach   MachineConfig

	// CollectTimeline records per-epoch lifetime spans (start, squashes,
	// commit) into Result.Spans for rendering with Timeline.
	CollectTimeline bool

	// Workers shards SimulateSequentialRegions across CPUs (epochs and
	// sequential segments time independently once memory latencies are
	// replayed; see seqshard.go for why the result is bit-identical).
	// 0 or 1 selects the serial reference path. Speculative Simulate
	// ignores it: epochs there interact through the violation table,
	// mailboxes and shared cache, so it cannot shard.
	Workers int
}

// Simulate replays the trace under the policy and returns timing and
// violation statistics.
func Simulate(in Input) *Result {
	m := newMachine(in)
	m.run()
	return m.res
}

// SimulateSequentialRegions times the entire trace on a single CPU with
// no speculation (the original sequential machine), attributing region
// segments' cycles to their regions. Its per-region cycle counts are the
// normalization baseline for every execution-time bar in the paper.
func SimulateSequentialRegions(in Input) *Result {
	in.Policy = Policy{Name: "seq"}
	if in.Workers > 1 {
		return simulateSeqSharded(in)
	}
	m := newMachine(in)
	for _, seg := range m.in.Trace.Segments {
		if seg.Region == nil {
			m.runSequential(seg.Seq)
			continue
		}
		rs, ok := m.res.Regions[seg.Region.RegionID]
		if !ok {
			rs = &RegionStats{RegionID: seg.Region.RegionID}
			m.res.Regions[seg.Region.RegionID] = rs
		}
		start := m.cycle
		for _, e := range seg.Region.Epochs {
			seqStart := m.res.SeqCycles
			m.runSequential(e.Events)
			// runSequential accrues into SeqCycles; region time is
			// tracked separately, so roll that back.
			m.res.SeqCycles = seqStart
			rs.Epochs++
		}
		rs.Cycles += m.cycle - start
		rs.Slots.Busy += m.cycle - start // nominal: 1 CPU, bookkeeping only
	}
	m.res.TotalCycles = m.cycle
	return m.res
}

// loadMark records the first exposed load of a cache line within a run.
type loadMark struct {
	cycle int64
	pc    int // load Origin
}

// frameSB is one call frame's register scoreboard.
type frameSB struct {
	// ready[r] is the cycle register r becomes ready, indexed by register
	// and grown on write. Zero means "never written", which reads the
	// same as a write at cycle 0 because every read takes
	// max(base, ready[r]) with base >= 0. Every slot past len(ready) is
	// zero: reset clears before it truncates.
	ready []int64
	base  int64 // no register is ready before this (frame entry time)
	// callDst is the register in the CALLER that receives this frame's
	// return value.
	callDst ir.Reg
}

// readyAt returns the cycle register r becomes ready (0 if never written).
func (f *frameSB) readyAt(r ir.Reg) int64 {
	if int(r) < len(f.ready) {
		return f.ready[r]
	}
	return 0
}

// setReady records that register r becomes ready at cycle t.
func (f *frameSB) setReady(r ir.Reg, t int64) {
	if n := int(r) + 1; n > len(f.ready) {
		f.ready = append(f.ready, make([]int64, n-len(f.ready))...)
	}
	f.ready[r] = t
}

// reset forgets every register's readiness, keeping the capacity.
func (f *frameSB) reset() {
	clear(f.ready)
	f.ready = f.ready[:0]
}

// epochRun is the execution of one epoch on one CPU (possibly restarted).
type epochRun struct {
	epoch *trace.Epoch
	idx   int // next event index
	gen   int // incremented on every restart
	cpu   int

	frames []*frameSB

	slots        Slots
	finished     bool
	finishCycle  int64
	lastComplete int64
	stallUntil   int64
	stallSync    bool // current fixed stall classifies as sync
	stallFail    bool // current fixed stall is squash-to-restart (fail)

	// Dependence-tracking state (line granularity for violations, word
	// granularity for private-hit detection).
	loadLines  map[int64]loadMark
	storeLines map[int64]int64
	storeWords map[int64]bool

	// Synchronization state.
	consumedGen int             // predecessor signal generation consumed (-1: none)
	signaled    map[int64]bool  // memory sync channels signaled this run
	sigBuf      map[int64]int64 // signal address buffer: addr -> channel
	sigBufPeak  int

	// Value prediction.
	mispredicted  bool
	predictBan    bool
	mispredictPCs []int
	trainings     []pcVal

	// Stall cycle accounting by cause (committed runs only).
	scalarWait, memWait, hwWait int64

	// span records this epoch's lifetime when timelines are collected.
	span *EpochSpan
}

type pcVal struct {
	pc int
	v  int64
}

type mailKey struct {
	consumer int // consuming epoch index
	ch       int64
	scalar   bool
}

type mailEntry struct {
	ready int64
	gen   int // producer run generation
	null  bool
}

type machine struct {
	in    Input
	cfg   MachineConfig
	pol   Policy
	res   *Result
	hier  *hierarchy
	lat   latencySource // memory-latency provider: hier, or a recorded replay
	code  ir.Code       // static-instruction table resolving trace.Event.SI
	spans useSpans      // register operands of every instruction in code

	table  *hwTable // violation-history table (shadow in all modes)
	pred   *predictor
	filter *syncFilter // per-channel usefulness (FilterSync)

	cycle int64

	// Per-region-instance state.
	runs         map[int]*epochRun // epoch index -> active run
	committedGen map[int]int
	mail         map[mailKey]mailEntry
	oldest       int
	nextStart    int
	lastStarted  int64 // cycle the most recent epoch started (spawn stagger)
	cpuFree      []int64
	curRegion    *RegionStats
	epochs       []*trace.Epoch
}

func newMachine(in Input) *machine {
	if in.Mach.CPUs == 0 {
		in.Mach = DefaultMachine()
	}
	pred := newPredictor()
	pred.strideMode = in.Policy.StridePredict
	var code ir.Code
	if in.Trace != nil {
		code = in.Trace.Code
	}
	m := &machine{
		in:     in,
		cfg:    in.Mach,
		pol:    in.Policy,
		hier:   newHierarchy(in.Mach),
		table:  newHWTable(in.Mach.HWTableSize, in.Mach.HWResetEpochs),
		pred:   pred,
		filter: newSyncFilter(),
		code:   code,
		spans:  newUseSpans(code),
		res: &Result{
			Policy:     in.Policy.Name,
			Machine:    in.Mach,
			Regions:    make(map[int]*RegionStats),
			ViolByKind: make(map[string]int64),
		},
	}
	m.lat = m.hier
	return m
}

func (m *machine) run() {
	for _, seg := range m.in.Trace.Segments {
		if seg.Region != nil {
			m.runRegion(seg.Region)
		} else {
			m.runSequential(seg.Seq)
		}
	}
	m.res.TotalCycles = m.cycle
}

// ---------------------------------------------------------------------------
// Sequential segments: one CPU, no speculation, sync ops are unit-latency.

func (m *machine) runSequential(events []trace.Event) {
	run := m.newRun(&trace.Epoch{Events: events}, 0)
	start := m.cycle
	for run.idx < len(run.epoch.Events) {
		m.stepSequential(run)
		m.cycle++
	}
	if run.lastComplete > m.cycle {
		m.cycle = run.lastComplete
	}
	m.res.SeqCycles += m.cycle - start
	putRun(run)
}

func (m *machine) stepSequential(run *epochRun) {
	issued := 0
	for issued < m.cfg.IssueWidth && run.idx < len(run.epoch.Events) {
		ev := &run.epoch.Events[run.idx]
		if m.operandsReady(run, ev) > m.cycle {
			break
		}
		lat := m.execLatency(run, ev)
		m.completeEvent(run, ev, lat)
		run.idx++
		issued++
	}
}

// ---------------------------------------------------------------------------
// Region instances

func (m *machine) runRegion(ri *trace.RegionInstance) {
	rs, ok := m.res.Regions[ri.RegionID]
	if !ok {
		rs = &RegionStats{RegionID: ri.RegionID}
		m.res.Regions[ri.RegionID] = rs
	}
	m.curRegion = rs
	m.epochs = ri.Epochs
	// Region bookkeeping maps are reused (cleared) across instances; note
	// that m.runs stays non-nil after the first region on purpose — the
	// sequential-segment guards in spec.go test nil-ness, and a
	// post-region sequential segment has always taken the non-nil path.
	if m.runs == nil {
		m.runs = make(map[int]*epochRun)
		m.committedGen = make(map[int]int)
		m.mail = make(map[mailKey]mailEntry)
		m.cpuFree = make([]int64, m.cfg.CPUs)
	} else {
		clear(m.runs)
		clear(m.committedGen)
		clear(m.mail)
	}
	m.oldest = 0
	m.nextStart = 0
	m.lastStarted = m.cycle - int64(m.cfg.SpawnCost)
	for i := range m.cpuFree {
		m.cpuFree[i] = m.cycle
	}

	start := m.cycle
	guard := int64(0)
	for m.oldest < len(m.epochs) {
		m.startRuns()
		// Step runs in epoch order: deterministic, and the oldest epoch's
		// stores are seen by younger epochs within the same cycle.
		for e := m.oldest; e < m.nextStart; e++ {
			if run := m.runs[e]; run != nil {
				m.stepRun(run)
			}
		}
		// Idle CPUs burn slots inside the region.
		busyCPUs := len(m.runs)
		m.curRegionIdle(int64(m.cfg.CPUs-busyCPUs) * int64(m.cfg.IssueWidth))
		m.tryCommit()
		m.cycle++
		guard++
		if guard > 1<<34 {
			panic(fmt.Sprintf("sim: region %d wedged at epoch %d/%d (policy %s)",
				ri.RegionID, m.oldest, len(m.epochs), m.pol.Name))
		}
	}
	rs.Cycles += m.cycle - start
	m.curRegion = nil
}

func (m *machine) curRegionIdle(slots int64) {
	m.curRegion.Slots.Other += slots
}

// startRuns launches epochs in order as CPUs free up, with spawn stagger.
func (m *machine) startRuns() {
	for m.nextStart < len(m.epochs) {
		cpu := m.nextStart % m.cfg.CPUs
		if m.cpuFree[cpu] > m.cycle {
			return
		}
		if m.lastStarted+int64(m.cfg.SpawnCost) > m.cycle {
			return // epochs spawn in order with SpawnCost stagger
		}
		run := m.newRun(m.epochs[m.nextStart], cpu)
		run.frames[0].base = m.cycle
		m.runs[m.nextStart] = run
		m.cpuFree[cpu] = 1 << 62 // busy until commit
		m.lastStarted = m.cycle
		if m.in.CollectTimeline {
			run.span = &EpochSpan{
				RegionID: m.curRegion.RegionID,
				Epoch:    m.nextStart,
				CPU:      cpu,
				Start:    m.cycle,
			}
		}
		m.nextStart++
	}
}

// epochIdxOf finds the epoch index of a run (runs are keyed by index).
func (m *machine) epochIdxOf(run *epochRun) int {
	return run.epoch.Index
}

// ---------------------------------------------------------------------------
// Stepping one run for one cycle

func (m *machine) stepRun(run *epochRun) {
	width := int64(m.cfg.IssueWidth)
	if run.finished {
		run.slots.Other += width
		return
	}
	if run.stallUntil > m.cycle {
		switch {
		case run.stallFail:
			// Squash-to-restart gap: certain fail, credited directly.
			if m.curRegion != nil {
				m.curRegion.Slots.Fail += width
			}
		case run.stallSync:
			run.slots.Sync += width
		default:
			run.slots.Other += width
		}
		return
	}
	run.stallFail = false
	issued := int64(0)
	syncBlocked := false
	for issued < width {
		if run.idx >= len(run.epoch.Events) {
			run.finished = true
			run.finishCycle = maxI64(m.cycle, run.lastComplete)
			break
		}
		ev := &run.epoch.Events[run.idx]
		if m.operandsReady(run, ev) > m.cycle {
			break
		}
		ok, sync := m.gate(run, ev)
		if !ok {
			syncBlocked = sync
			break
		}
		lat := m.execLatency(run, ev)
		m.completeEvent(run, ev, lat)
		run.idx++
		issued++
		// A store may have just violated another run; violations are
		// applied immediately and do not affect this run's issue.
	}
	run.slots.Busy += issued
	rest := width - issued
	if rest > 0 {
		if syncBlocked {
			run.slots.Sync += rest
		} else {
			run.slots.Other += rest
		}
	}
}

// useSpans flattens a static-instruction table into register-use spans:
// the registers instruction si reads are uses[off[si]:off[si+1]], in
// Instr.AppendUses order. Built once per simulation in O(static
// instructions), it lets the per-event and per-stalled-cycle operand
// check walk a shared slice instead of allocating one per call.
type useSpans struct {
	uses []ir.Reg
	off  []int32
}

func newUseSpans(code ir.Code) useSpans {
	s := useSpans{uses: make([]ir.Reg, 0, 2*len(code)), off: make([]int32, len(code)+1)}
	for si, in := range code {
		if in != nil {
			s.uses = in.AppendUses(s.uses)
		}
		s.off[si+1] = int32(len(s.uses))
	}
	return s
}

// of returns the registers static instruction si reads.
func (s useSpans) of(si int32) []ir.Reg { return s.uses[s.off[si]:s.off[si+1]] }

// operandsReady returns the cycle at which all source registers are ready.
func (m *machine) operandsReady(run *epochRun, ev *trace.Event) int64 {
	f := run.frames[len(run.frames)-1]
	t := f.base
	for _, u := range m.spans.of(ev.SI) {
		if r := f.readyAt(u); r > t {
			t = r
		}
	}
	return t
}

// gate checks op-specific stall conditions. It returns (canIssue,
// blockedOnSync). Stall-cycle accounting happens here.
func (m *machine) gate(run *epochRun, ev *trace.Event) (bool, bool) {
	e := m.epochIdxOf(run)
	isOldest := e == m.oldest
	in := m.code[ev.SI]
	switch in.Op {
	case ir.WaitScalar:
		// Scalar synchronization applies in every mode, including the
		// perfect-memory oracle (the paper's O bars keep the scalar sync
		// segment).
		if ok := m.waitReady(run, e, in.Imm, true); !ok {
			run.scalarWait++
			return false, true
		}
		return true, false
	case ir.WaitMemAddr, ir.WaitMemVal:
		if m.pol.PerfectSyncedValues || m.pol.PerfectMemory {
			return true, false
		}
		if m.pol.FilterSync && m.filter.bypass(in.Imm) {
			return true, false // hardware filtered this channel out
		}
		if m.pol.StallSyncedUntilOldest {
			if !isOldest {
				run.memWait++
				return false, true
			}
			return true, false
		}
		if ok := m.waitReady(run, e, in.Imm, false); !ok {
			run.memWait++
			return false, true
		}
		if in.Op == ir.WaitMemAddr {
			m.filter.noteWait(in.Imm)
		}
		return true, false
	case ir.Load, ir.LoadSync:
		if m.immuneLoad(run, ev) {
			return true, false
		}
		if m.pol.HWSync && !isOldest && m.table.contains(in.Origin) {
			run.hwWait++
			return false, true
		}
		return true, false
	}
	return true, false
}

// immuneLoad reports whether the load is violation-immune under the
// policy (oracle modes, forwarded values, correct predictions).
func (m *machine) immuneLoad(run *epochRun, ev *trace.Event) bool {
	if m.pol.PerfectMemory {
		return true
	}
	in := m.code[ev.SI]
	if m.pol.OracleLoads != nil && m.pol.OracleLoads[in.Origin] {
		return true
	}
	if in.Op == ir.LoadSync {
		if m.pol.PerfectSyncedValues || m.pol.StallSyncedUntilOldest {
			return true
		}
		if ev.Flags&trace.FlagUFF != 0 {
			// A filtered channel's wait was bypassed, so no forwarded
			// value arrived and the use-forwarded-value flag cannot be
			// set: the load behaves like a plain speculative load.
			if m.pol.FilterSync && m.filter.bypass(in.Imm) {
				return false
			}
			return true // forwarded value used: cannot violate
		}
	}
	return false
}

// waitReady decides whether a wait can complete now: a valid mailbox
// entry arrived, the epoch is the oldest (all predecessors committed), or
// the predecessor run finished (implicit NULL signal).
func (m *machine) waitReady(run *epochRun, e int, ch int64, scalar bool) bool {
	if e == m.oldest {
		return true
	}
	key := mailKey{consumer: e, ch: ch, scalar: scalar}
	entry, ok := m.mail[key]
	pred := m.runs[e-1]
	if ok {
		valid := false
		if pred != nil {
			valid = entry.gen == pred.gen
		} else if g, committed := m.committedGen[e-1]; committed {
			valid = entry.gen == g
		}
		if valid && entry.ready <= m.cycle {
			run.consumedGen = entry.gen
			return true
		}
		if valid {
			return false // in flight
		}
	}
	// Implicit NULL: predecessor finished executing without signaling.
	if pred != nil && pred.finished && pred.finishCycle+int64(m.cfg.CommLat) <= m.cycle {
		run.consumedGen = pred.gen
		return true
	}
	if pred == nil {
		// Predecessor committed (or never existed): memory is safe.
		return true
	}
	return false
}

// execLatency computes the operation's latency and performs its
// micro-architectural side effects (cache access, dependence tracking,
// signaling, violations).
func (m *machine) execLatency(run *epochRun, ev *trace.Event) int {
	in := m.code[ev.SI]
	switch in.Op {
	case ir.Bin:
		switch in.Alu {
		case ir.Mul:
			return m.cfg.IntMulLat
		case ir.Div, ir.Rem:
			return m.cfg.IntDivLat
		}
		return 1
	case ir.Load, ir.LoadSync:
		lat := m.lat.memLatency(run.cpu, ev.Addr)
		m.trackLoad(run, ev)
		return lat
	case ir.Store:
		m.lat.memLatency(run.cpu, ev.Addr)
		m.trackStore(run, ev)
		return 1
	case ir.NewObj:
		return m.cfg.AllocCost
	case ir.Call, ir.Ret:
		return m.cfg.CallCost
	case ir.SignalScalar:
		m.signal(run, ev, true)
		return 1
	case ir.SignalMem:
		m.signal(run, ev, false)
		return 1
	case ir.SignalMemNull:
		m.signalNull(run, ev)
		return 1
	default:
		return 1
	}
}

// completeEvent updates the scoreboard (and call-frame stack) after issue.
func (m *machine) completeEvent(run *epochRun, ev *trace.Event, lat int) {
	in := m.code[ev.SI]
	done := m.cycle + int64(lat)
	if done > run.lastComplete {
		run.lastComplete = done
	}
	switch in.Op {
	case ir.Call:
		// Push the callee frame; its registers become ready after the
		// call overhead (parameters arrive with the call).
		run.frames = append(run.frames, getFrameSB(done, in.Dst))
	case ir.Ret:
		// Pop back to the caller; the call's destination register is
		// ready once the return completes (including the returned
		// value's readiness).
		retReady := done
		if in.A != ir.None {
			if r := run.frames[len(run.frames)-1].readyAt(in.A); r > retReady {
				retReady = r
			}
		}
		if len(run.frames) > 1 {
			popped := run.frames[len(run.frames)-1]
			callDst := popped.callDst
			run.frames = run.frames[:len(run.frames)-1]
			putFrameSB(popped)
			if callDst != ir.None {
				run.frames[len(run.frames)-1].setReady(callDst, retReady)
			}
		}
		if retReady > run.lastComplete {
			run.lastComplete = retReady
		}
	default:
		if in.HasDst() {
			run.frames[len(run.frames)-1].setReady(in.Dst, done)
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
