package sim

import (
	"fmt"
	"math"

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

	// Workers is ignored: every simulation runs serially. It stays so
	// that existing callers keep compiling.
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
	idx   int         // next event index
	di    int         // data cursor of event idx+1 (what decoding ev returned)
	ev    trace.Event // event idx, decoded once per position (see decode)
	gen   int         // incremented on every restart
	cpu   int

	frames []*frameSB

	slots        Slots
	finished     bool
	finishCycle  int64
	lastComplete int64
	stallUntil   int64 // no issue before this cycle: restart gap or operands not ready
	stallFail    bool  // the stall is a squash-to-restart gap (fail), not a plain stall

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

// rewind positions the run at its first event.
func (r *epochRun) rewind() {
	r.idx, r.di = 0, 0
	r.decode()
}

// advance moves the run past its current event.
func (r *epochRun) advance() {
	r.idx++
	r.decode()
}

// done reports whether every event of the run has issued.
func (r *epochRun) done() bool { return r.idx >= r.epoch.Events.Len() }

// decode loads event idx into ev. It runs once per position, so a
// stalled run re-checks the same ev every cycle without decoding again.
func (r *epochRun) decode() {
	if !r.done() {
		r.ev, r.di = r.epoch.Events.Decode(r.idx, r.di)
	}
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
	code  ir.Code  // static-instruction table resolving trace.Event.SI
	spans useSpans // register operands of every instruction in code

	table  *hwTable // violation-history table (shadow in all modes)
	pred   *predictor
	filter *syncFilter // per-channel usefulness (FilterSync)

	cycle int64
	iters int64 // simulation-loop iterations (the idle-cycle budget test reads it)

	// tracking turns on dependence tracking and signaling at the first
	// region and leaves it on: sequential segments before any region
	// skip it, and every later one runs it, which feeds the sync filter
	// and the predictor.
	tracking bool

	// Per-region-instance state.
	runs        []*epochRun // live runs, a ring indexed by epoch & ringMask (see runOf)
	ringMask    int
	mail        map[mailKey]mailEntry
	oldest      int
	nextStart   int
	lastStarted int64 // cycle the most recent epoch started (spawn stagger)
	cpuFree     []int64
	curRegion   *RegionStats
	epochs      []*trace.Epoch
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
	return &machine{
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

func (m *machine) runSequential(events trace.Events) {
	run := m.newRun(&trace.Epoch{Events: events}, 0)
	start := m.cycle
	for !run.done() {
		m.iters++
		// Only issue changes state here (no per-cycle slot charges, and
		// the cache is touched at issue), so the cycles before the
		// blocking event's operands are ready would issue nothing.
		ready := m.stepSequential(run)
		m.cycle = max(m.cycle+1, ready)
	}
	if run.lastComplete > m.cycle {
		m.cycle = run.lastComplete
	}
	m.res.SeqCycles += m.cycle - start
	putRun(run)
}

// stepSequential issues up to IssueWidth ready events this cycle. It
// returns the cycle the event that stopped it becomes ready, or 0 when
// it stopped on issue width or the end of the segment.
func (m *machine) stepSequential(run *epochRun) int64 {
	for issued := 0; issued < m.cfg.IssueWidth && !run.done(); issued++ {
		ev := &run.ev
		if t := m.operandsReady(run, ev); t > m.cycle {
			return t
		}
		lat := m.execLatency(run, ev)
		m.completeEvent(run, ev, lat)
		run.advance()
	}
	return 0
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
	// Region bookkeeping is reused (cleared) across instances. Every
	// run of the previous instance committed, so the ring is empty.
	if !m.tracking {
		m.tracking = true
		ring := 1
		for ring < m.cfg.CPUs {
			ring <<= 1
		}
		m.runs, m.ringMask = make([]*epochRun, ring), ring-1
		m.mail = make(map[mailKey]mailEntry)
		m.cpuFree = make([]int64, m.cfg.CPUs)
	} else {
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
		m.iters++
		m.startRuns()
		// Step runs in epoch order: deterministic, and the oldest epoch's
		// stores are seen by younger epochs within the same cycle.
		for e := m.oldest; e < m.nextStart; e++ {
			m.stepRun(m.runOf(e))
		}
		// Idle CPUs burn slots inside the region.
		busyCPUs := m.nextStart - m.oldest
		m.curRegionIdle(int64(m.cfg.CPUs-busyCPUs) * int64(m.cfg.IssueWidth))
		m.tryCommit()
		m.cycle++
		guard++
		if m.oldest < len(m.epochs) {
			if idle := m.wakeCycle() - m.cycle; idle > 0 {
				m.chargeIdle(idle)
				m.cycle += idle
				guard += idle
			}
		}
		if guard > 1<<34 {
			panic(fmt.Sprintf("sim: region %d wedged at epoch %d/%d (policy %s)",
				ri.RegionID, m.oldest, len(m.epochs), m.pol.Name))
		}
	}
	rs.Cycles += m.cycle - start
	m.curRegion = nil
}

// runOf returns the live run of epoch e, or nil when e has not started
// or has committed. Live epochs are consecutive and at most CPUs of
// them, because epoch e+CPUs starts on e's CPU only after e commits, so
// a power-of-two ring of at least CPUs slots holds each in its own slot
// (a mask, not a division, on the hot path).
func (m *machine) runOf(e int) *epochRun {
	if e < m.oldest || e >= m.nextStart {
		return nil
	}
	return m.runs[e&m.ringMask]
}

func (m *machine) curRegionIdle(slots int64) {
	m.curRegion.Slots.Other += slots
}

// wakeCycle returns the earliest cycle, at or after m.cycle, at which
// stepping the region can do more than charge stall slots: a stalled
// run resumes, the finished oldest run commits, or the next epoch
// spawns. It returns m.cycle when some run may issue now or waits on a
// gate (wait counters tick every cycle, so those cycles are not idle).
func (m *machine) wakeCycle() int64 {
	wake := int64(math.MaxInt64)
	if m.nextStart < len(m.epochs) {
		wake = max(m.cpuFree[m.nextStart%m.cfg.CPUs], m.lastStarted+int64(m.cfg.SpawnCost))
	}
	for e := m.oldest; e < m.nextStart; e++ {
		run := m.runOf(e)
		switch {
		case run.finished:
			if e == m.oldest {
				wake = min(wake, run.finishCycle+int64(m.cfg.CommitCost))
			}
		case run.stallUntil > m.cycle:
			wake = min(wake, run.stallUntil)
		default:
			return m.cycle
		}
	}
	return wake
}

// chargeIdle books n idle cycles in bulk, exactly as stepping each of
// them would: every live run is finished or stalled, and it and every
// idle CPU burn their issue width.
func (m *machine) chargeIdle(n int64) {
	slots := n * int64(m.cfg.IssueWidth)
	for e := m.oldest; e < m.nextStart; e++ {
		m.chargeWaiting(m.runOf(e), slots)
	}
	m.curRegionIdle(int64(m.cfg.CPUs-(m.nextStart-m.oldest)) * slots)
}

// chargeWaiting books slots of a finished or stalled run: a
// squash-to-restart gap is certain fail, credited to the region
// directly; waiting for commit or for operands is other. (A finished
// run is never stallFail: issue clears it, and a restart unfinishes.)
func (m *machine) chargeWaiting(run *epochRun, slots int64) {
	if run.stallFail {
		m.curRegion.Slots.Fail += slots
	} else {
		run.slots.Other += slots
	}
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
		m.runs[m.nextStart&m.ringMask] = run
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
	if run.finished || run.stallUntil > m.cycle {
		m.chargeWaiting(run, width)
		return
	}
	run.stallFail = false
	issued := int64(0)
	syncBlocked := false
	for issued < width {
		if run.done() {
			run.finished = true
			run.finishCycle = max(m.cycle, run.lastComplete)
			break
		}
		ev := &run.ev
		if t := m.operandsReady(run, ev); t > m.cycle {
			// Only this run's own issue or a restart changes its
			// scoreboard, so it stays blocked until t: a plain stall,
			// charged to other like the blocked cycles it stands for.
			run.stallUntil = t
			break
		}
		ok, sync := m.gate(run, ev)
		if !ok {
			syncBlocked = sync
			break
		}
		lat := m.execLatency(run, ev)
		m.completeEvent(run, ev, lat)
		run.advance()
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

// waitReady decides whether a wait can complete now: the epoch is the
// oldest (all predecessors committed), a mailbox entry from the
// predecessor's current run arrived, or the predecessor run finished
// (implicit NULL signal).
func (m *machine) waitReady(run *epochRun, e int, ch int64, scalar bool) bool {
	if e == m.oldest {
		return true
	}
	pred := m.runOf(e - 1) // live: oldest <= e-1 < e < nextStart
	key := mailKey{consumer: e, ch: ch, scalar: scalar}
	if entry, ok := m.mail[key]; ok && entry.gen == pred.gen {
		if entry.ready <= m.cycle {
			run.consumedGen = entry.gen
			return true
		}
		return false // in flight
	}
	// Implicit NULL: predecessor finished executing without signaling.
	if pred.finished && pred.finishCycle+int64(m.cfg.CommLat) <= m.cycle {
		run.consumedGen = pred.gen
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
		lat := m.hier.latency(run.cpu, ev.Addr)
		m.trackLoad(run, ev)
		return lat
	case ir.Store:
		m.hier.latency(run.cpu, ev.Addr)
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
