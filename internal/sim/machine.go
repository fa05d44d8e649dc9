package sim

import (
	"fmt"
	"math"
	"slices"

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

	// Warmup, when set, is NewWarmup(Trace, Mach): Simulate restores it
	// instead of simulating the trace's leading sequential segments.
	Warmup *Warmup
}

// Simulate replays the trace under the policy and returns timing and
// violation statistics.
func Simulate(in Input) *Result {
	m := newMachine(in)
	if in.Warmup != nil {
		m.restore(in.Warmup)
	} else {
		m.runPrefix()
	}
	m.run()
	return m.finish()
}

// SimulateEveryCycle is Simulate with idle-cycle skipping turned off:
// it steps every cycle, the slow reference that the skips must match
// byte for byte. It ignores in.Warmup and steps the leading segments
// too. Only tests call it (FuzzSimulateStepping).
func SimulateEveryCycle(in Input) *Result {
	m := newMachine(in)
	m.stepping = true
	m.runPrefix()
	m.run()
	return m.finish()
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
	return m.finish()
}

// loadMark records the first exposed load of a cache line within a run.
type loadMark struct {
	cycle int64
	pc    int // load Origin
}

// frame is one call frame of a run's register file.
type frame struct {
	off     int    // the frame's window is regs[off : off+codeTable.regs]
	base    int64  // no register is ready before this (frame entry time)
	callDst ir.Reg // the register in the CALLER that receives the return value
}

// epochRun is the execution of one epoch on one CPU (possibly restarted).
type epochRun struct {
	epoch  *trace.Epoch
	stream trace.Events // epoch.Events, so reading it follows no pointer
	idx    int          // next event index
	si     int32        // static instruction of event idx
	di     int          // data cursor: stream.Data[di] is event idx's operand, if it has one
	gen    int          // incremented on every restart
	cpu    int
	seq    bool // a sequential segment's run: it never commits and is never a victim

	// The register file: one window of code.regs ready cycles per live
	// call frame, stacked in regs. A slot holds the cycle its register
	// becomes ready; zero means never written, which reads the same as
	// a write at cycle 0 because every read takes max(base, cur[r]) with
	// base >= 0. cur and base are the top frame's window and entry
	// cycle.
	regs   []int64
	frames []frame
	cur    []int64
	base   int64

	slots        Slots
	finished     bool
	finishCycle  int64
	lastComplete int64
	stallUntil   int64 // no issue before this cycle: restart gap or operands not ready
	stallFail    bool  // the stall is a squash-to-restart gap (fail), not a plain stall
	gated        bool  // the last step stopped on the gate of event idx (a wait or a synchronized load)

	// Dependence-tracking state (line granularity for violations, word
	// granularity for private-hit detection).
	loadLines  addrTable[loadMark]
	storeLines addrTable[int64]
	storeWords addrTable[struct{}]

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

// The stream is read in place: a run keeps the static instruction of its
// current event and the cursor of its operand, and reads the operand
// only on the paths that need it (memory access, dependence tracking,
// signaling, forwarded loads). See trace.Events for the encoding.

// rewind positions the run at its first event.
func (r *epochRun) rewind() {
	r.stream, r.idx, r.di = r.epoch.Events, 0, 0
	r.load()
}

// advance moves the run past its current event.
func (r *epochRun) advance() {
	if r.stream.Ops[r.idx] < 0 {
		r.di++
	}
	r.idx++
	r.load()
}

// done reports whether every event of the run has issued.
func (r *epochRun) done() bool { return r.idx >= len(r.stream.Ops) }

// load reads the static instruction of event idx. It runs once per
// position, so a stalled run re-checks the same si every cycle.
func (r *epochRun) load() {
	if !r.done() {
		if w := r.stream.Ops[r.idx]; w >= 0 {
			r.si = w
		} else {
			r.si = ^w
		}
	}
}

// operand returns the current event's Addr, Val and Flags: all zero
// when it carries no Operand record.
func (r *epochRun) operand() trace.Operand {
	if r.stream.Ops[r.idx] >= 0 {
		return trace.Operand{}
	}
	return r.stream.Data[r.di]
}

// push enters a call frame at cycle base whose return value goes to the
// caller's callDst: it opens a window of n registers, none written.
func (r *epochRun) push(n int, base int64, callDst ir.Reg) {
	off := len(r.regs)
	r.regs = slices.Grow(r.regs, n)[:off+n]
	r.cur = r.regs[off:]
	clear(r.cur)
	r.frames = append(r.frames, frame{off: off, base: base, callDst: callDst})
	r.base = base
}

// pop leaves the top frame, which must not be the base frame, and
// returns the caller register that receives its return value.
func (r *epochRun) pop() ir.Reg {
	top := r.frames[len(r.frames)-1]
	r.frames = r.frames[:len(r.frames)-1]
	r.regs = r.regs[:top.off]
	f := r.frames[len(r.frames)-1]
	r.cur, r.base = r.regs[f.off:], f.base
	return top.callDst
}

type pcVal struct {
	pc int
	v  int64
}

// mailEntry is one mailbox: the latest signal a producer run sent its
// consumer on one channel. The zero entry is an empty mailbox.
type mailEntry struct {
	ready int64 // cycle the forwarded value arrives
	gen   int   // producer run generation
	sent  bool
}

type machine struct {
	in   Input
	cfg  MachineConfig
	pol  Policy
	res  *Result
	hier *hierarchy
	code *codeTable // static-instruction records resolving trace.Event.SI

	table  *hwTable // violation-history table (shadow in all modes)
	pred   *predictor
	filter *syncFilter // per-channel usefulness (FilterSync)

	cycle int64
	iters int64 // simulation-loop iterations (the idle-cycle budget test reads it)
	next  int   // the first segment run simulates: past the prefix after runPrefix or restore

	// stepping turns both idle skips off (SimulateEveryCycle). It is
	// read once per segment and once per region-loop iteration, never
	// per event.
	stepping bool

	// tracking turns on dependence tracking and signaling at the first
	// region and leaves it on: sequential segments before any region
	// skip it, and every later one runs it, which feeds the sync filter
	// and the predictor.
	tracking bool

	// Per-region-instance state.
	runs     []*epochRun // live runs, a ring indexed by epoch & ringMask (see runOf)
	ringMask int
	// mail holds one row of code.boxes mailboxes per ring slot, the
	// row of consumer epoch c at c & ringMask (see mailbox).
	mail        []mailEntry
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
	if err := checkGeometry(in.Mach); err != nil {
		panic(err)
	}
	pred := newPredictor()
	pred.strideMode = in.Policy.StridePredict
	var prog ir.Code
	if in.Trace != nil {
		prog = in.Trace.Code
	}
	code := getCodeTable(prog, in.Mach)
	return &machine{
		in:     in,
		cfg:    in.Mach,
		pol:    in.Policy,
		hier:   getHierarchy(in.Mach),
		table:  newHWTable(in.Mach.HWTableSize, in.Mach.HWResetEpochs, code.hwSlot),
		pred:   pred,
		filter: newSyncFilter(),
		code:   code,
		res: &Result{
			Policy:     in.Policy.Name,
			Machine:    in.Mach,
			Regions:    make(map[int]*RegionStats),
			ViolByKind: make(map[string]int64),
		},
	}
}

// finish recycles the machine's pooled state and returns its result.
func (m *machine) finish() *Result {
	putHierarchy(m.hier)
	putCodeTable(m.code)
	m.hier, m.code = nil, nil
	return m.res
}

// runPrefix simulates the trace's leading sequential segments, the
// state a Warmup records. Tracking is still off there, so nothing the
// policy decides runs.
func (m *machine) runPrefix() {
	segs := m.in.Trace.Segments
	for ; m.next < len(segs) && segs[m.next].Region == nil; m.next++ {
		m.runSequential(segs[m.next].Seq)
	}
}

// run simulates the segments from m.next on.
func (m *machine) run() {
	for _, seg := range m.in.Trace.Segments[m.next:] {
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
	run := m.newRun(&trace.Epoch{Events: events}, 0, 0)
	run.seq = true
	start := m.cycle
	// skip masks the ready cycle stepSequential returns: all ones jumps
	// there, zero steps one cycle at a time.
	skip := int64(-1)
	if m.stepping {
		skip = 0
	}
	for !run.done() {
		m.iters++
		// Only issue changes state here (no per-cycle slot charges, and
		// the cache is touched at issue), so the cycles before the
		// blocking event's operands are ready would issue nothing.
		ready := m.stepSequential(run)
		m.cycle = max(m.cycle+1, ready&skip)
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
		in := &m.code.inst[run.si]
		if t := m.operandsReady(run, in); t > m.cycle {
			return t
		}
		if in.kind == kFixed {
			m.issueFixed(run, in)
		} else {
			m.completeEvent(run, in, m.execLatency(run, in))
		}
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
		m.mail = make([]mailEntry, ring*m.code.boxes)
		m.cpuFree = make([]int64, m.cfg.CPUs)
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
		if m.oldest < len(m.epochs) && !m.stepping {
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

// never is the wake-up cycle of a run that only another run's issue or
// a commit can wake.
const never = math.MaxInt64

// wakeCycle returns the earliest cycle, at or after m.cycle, at which
// stepping the region can do more than charge stall slots: a stalled
// run resumes, a gated run's gate opens, the finished oldest run
// commits, or the next epoch spawns. It returns m.cycle when some run
// may issue now. Until the wake-up no run issues, so nothing a gate
// reads changes: a new signal, a finish, a restart, a violation-table
// or filter update each needs some run to issue, and a commit is a
// wake-up itself.
func (m *machine) wakeCycle() int64 {
	wake := int64(never)
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
		case run.gated:
			wake = min(wake, m.gateOpens(run))
		default:
			return m.cycle
		}
	}
	return wake
}

// gateOpens returns the earliest cycle at which the gate that stopped
// the gated run can open, or never. A run that is the oldest passes
// every gate. A wait opens when a signal from its predecessor's current
// run arrives or CommLat after the predecessor finished (the implicit
// NULL). An L-policy memory wait and a hardware-synchronized load open
// only when a commit makes the run the oldest.
func (m *machine) gateOpens(run *epochRun) int64 {
	e := run.epoch.Index
	if e == m.oldest {
		return m.cycle
	}
	switch m.code.inst[run.si].kind {
	case kWaitScalar:
	case kWaitMemAddr, kWaitMemVal:
		if m.pol.StallSyncedUntilOldest {
			return never
		}
	default:
		return never
	}
	open, _ := m.waitOpens(e, m.code.ch[run.si].box)
	return open
}

// chargeIdle books n idle cycles in bulk, exactly as stepping each of
// them would: every live run is finished, stalled or gated, and it and
// every idle CPU burn their issue width. A gated run's cycles are sync
// slots and count towards its wait counter. Stepping would also poll
// the violation table for each hardware-synchronized load every cycle;
// skipping those contains calls leaves the LRU victim unchanged,
// because ticks are only compared with each other and every idle cycle
// repeats the same touches in the same order.
func (m *machine) chargeIdle(n int64) {
	slots := n * int64(m.cfg.IssueWidth)
	for e := m.oldest; e < m.nextStart; e++ {
		if run := m.runOf(e); run.gated {
			m.chargeGated(run, n)
		} else {
			m.chargeWaiting(run, slots)
		}
	}
	m.curRegionIdle(int64(m.cfg.CPUs-(m.nextStart-m.oldest)) * slots)
}

// chargeGated books n cycles of a run blocked on a gate, as gate and
// stepRun charge each of them.
func (m *machine) chargeGated(run *epochRun, n int64) {
	run.slots.Sync += n * int64(m.cfg.IssueWidth)
	switch m.code.inst[run.si].kind {
	case kWaitScalar:
		run.scalarWait += n
	case kWaitMemAddr, kWaitMemVal:
		run.memWait += n
	default:
		run.hwWait += n
	}
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
		run := m.newRun(m.epochs[m.nextStart], cpu, m.cycle)
		m.runs[m.nextStart&m.ringMask] = run
		// Only this run signals its consumer, so the consumer's row
		// starts empty: clear what an earlier epoch left in the slot.
		row := ((m.nextStart + 1) & m.ringMask) * m.code.boxes
		clear(m.mail[row : row+m.code.boxes])
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

// ---------------------------------------------------------------------------
// Stepping one run for one cycle

func (m *machine) stepRun(run *epochRun) {
	width := int64(m.cfg.IssueWidth)
	if run.finished || run.stallUntil > m.cycle {
		m.chargeWaiting(run, width)
		return
	}
	run.stallFail, run.gated = false, false
	issued := int64(0)
	for issued < width {
		if run.done() {
			run.finished = true
			run.finishCycle = max(m.cycle, run.lastComplete)
			break
		}
		in := &m.code.inst[run.si]
		if t := m.operandsReady(run, in); t > m.cycle {
			// Only this run's own issue or a restart changes its
			// scoreboard, so it stays blocked until t: a plain stall,
			// charged to other like the blocked cycles it stands for.
			run.stallUntil = t
			break
		}
		if in.kind == kFixed {
			m.issueFixed(run, in)
		} else {
			if !m.gate(run, in) {
				run.gated = true
				break
			}
			m.completeEvent(run, in, m.execLatency(run, in))
		}
		run.advance()
		issued++
		// A store may have just violated another run; violations are
		// applied immediately and do not affect this run's issue.
	}
	run.slots.Busy += issued
	rest := width - issued
	if rest > 0 {
		if run.gated {
			run.slots.Sync += rest
		} else {
			run.slots.Other += rest
		}
	}
}

// operandsReady returns the cycle at which all source registers are ready.
func (m *machine) operandsReady(run *epochRun, in *inst) int64 {
	t, cur := run.base, run.cur
	if in.nUses == wideUses {
		for _, u := range m.code.spans.of(run.si) {
			t = max(t, cur[u])
		}
		return t
	}
	for _, u := range in.use[:in.nUses] {
		t = max(t, cur[u])
	}
	return t
}

// issueFixed issues a fixed-latency event (kFixed) whose operands are
// ready: no gate holds it back and it has no side effect, so issuing it
// only sets the run's last completion and its destination.
func (m *machine) issueFixed(run *epochRun, in *inst) {
	done := m.cycle + int64(in.lat)
	run.lastComplete = max(run.lastComplete, done)
	if in.dst != int32(ir.None) {
		run.cur[in.dst] = done
	}
}

// gate checks op-specific stall conditions and reports whether the
// event may issue; an event it holds back is blocked on
// synchronization. Stall-cycle accounting happens here.
func (m *machine) gate(run *epochRun, in *inst) bool {
	e := run.epoch.Index
	isOldest := e == m.oldest
	switch in.kind {
	case kWaitScalar:
		// Scalar synchronization applies in every mode, including the
		// perfect-memory oracle (the paper's O bars keep the scalar sync
		// segment).
		if ok := m.waitReady(run, e, m.code.ch[run.si].box); !ok {
			run.scalarWait++
			return false
		}
		return true
	case kWaitMemAddr, kWaitMemVal:
		if m.pol.PerfectSyncedValues || m.pol.PerfectMemory {
			return true
		}
		ref := m.code.ch[run.si]
		if m.pol.FilterSync && m.filter.bypass(ref.ch) {
			return true // hardware filtered this channel out
		}
		if m.pol.StallSyncedUntilOldest {
			if !isOldest {
				run.memWait++
				return false
			}
			return true
		}
		if ok := m.waitReady(run, e, ref.box); !ok {
			run.memWait++
			return false
		}
		if in.kind == kWaitMemAddr {
			m.filter.noteWait(ref.ch)
		}
		return true
	case kLoad, kLoadSync:
		if m.immuneLoad(run, in) {
			return true
		}
		if m.pol.HWSync && !isOldest && m.table.contains(int(in.origin)) {
			run.hwWait++
			return false
		}
		return true
	}
	return true
}

// immuneLoad reports whether the load is violation-immune under the
// policy (oracle modes, forwarded values, correct predictions).
func (m *machine) immuneLoad(run *epochRun, in *inst) bool {
	if m.pol.PerfectMemory {
		return true
	}
	if m.pol.OracleLoads != nil && m.pol.OracleLoads[int(in.origin)] {
		return true
	}
	if in.kind == kLoadSync {
		if m.pol.PerfectSyncedValues || m.pol.StallSyncedUntilOldest {
			return true
		}
		if run.operand().Flags&trace.FlagUFF != 0 {
			// A filtered channel's wait was bypassed, so no forwarded
			// value arrived and the use-forwarded-value flag cannot be
			// set: the load behaves like a plain speculative load.
			if m.pol.FilterSync && m.filter.bypass(m.code.ch[run.si].ch) {
				return false
			}
			return true // forwarded value used: cannot violate
		}
	}
	return false
}

// waitReady decides whether a wait can complete now: the epoch is the
// oldest (all predecessors committed), or waitOpens says it has opened.
func (m *machine) waitReady(run *epochRun, e int, box int32) bool {
	if e == m.oldest {
		return true
	}
	open, gen := m.waitOpens(e, box)
	if open > m.cycle {
		return false
	}
	run.consumedGen = gen
	return true
}

// waitOpens returns the cycle at which a wait of epoch e, not the
// oldest, on box opens as things stand, and the predecessor generation
// it consumes then: a mailbox entry from the predecessor's current run
// arrives (while it is in flight, the entry decides), or the
// predecessor run finished executing without signaling (implicit NULL).
// Otherwise it returns never: only another run's issue or a commit can
// change that.
func (m *machine) waitOpens(e int, box int32) (int64, int) {
	pred := m.runOf(e - 1) // live: oldest <= e-1 < e < nextStart
	if entry := m.mailbox(e, box); entry.sent && entry.gen == pred.gen {
		return entry.ready, entry.gen
	}
	if pred.finished {
		return pred.finishCycle + int64(m.cfg.CommLat), pred.gen
	}
	return never, 0
}

// mailbox returns consumer epoch c's mailbox box. The row of c is live
// from its producer's start until c is the oldest, which waits never
// poll; at most CPUs rows are live at once, so the ring holds them.
func (m *machine) mailbox(c int, box int32) *mailEntry {
	return &m.mail[(c&m.ringMask)*m.code.boxes+int(box)]
}

// execLatency computes the operation's latency and performs its
// micro-architectural side effects (cache access, dependence tracking,
// signaling, violations).
func (m *machine) execLatency(run *epochRun, in *inst) int {
	switch in.kind {
	case kLoad, kLoadSync:
		op := run.operand()
		lat := m.hier.latency(run.cpu, op.Addr)
		m.trackLoad(run, &op, in)
		return lat
	case kStore:
		op := run.operand()
		m.hier.latency(run.cpu, op.Addr)
		m.trackStore(run, op.Addr)
	case kSignalScalar:
		m.signal(run, true)
	case kSignalMem:
		m.signal(run, false)
	case kSignalMemNull:
		m.signalNull(run)
	}
	return int(in.lat)
}

// completeEvent updates the register file (and call-frame stack) after
// issue.
func (m *machine) completeEvent(run *epochRun, in *inst, lat int) {
	done := m.cycle + int64(lat)
	run.lastComplete = max(run.lastComplete, done)
	switch in.kind {
	case kCall:
		// Push the callee frame; its registers become ready after the
		// call overhead (parameters arrive with the call).
		run.push(m.code.regs, done, ir.Reg(in.dst))
	case kRet:
		// Pop back to the caller; the call's destination register is
		// ready once the return completes (including the returned
		// value's readiness).
		retReady := done
		if ret := in.dst; ret != int32(ir.None) {
			retReady = max(retReady, run.cur[ret])
		}
		if len(run.frames) > 1 {
			if callDst := run.pop(); callDst != ir.None {
				run.cur[callDst] = retReady
			}
		}
		run.lastComplete = max(run.lastComplete, retReady)
	default:
		if dst := in.dst; dst != int32(ir.None) {
			run.cur[dst] = done
		}
	}
}
