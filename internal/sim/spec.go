package sim

import (
	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// ---------------------------------------------------------------------------
// Dependence tracking (line granularity, word-granular private hits)

// trackLoad records an exposed load for violation detection.
func (m *machine) trackLoad(run *epochRun, op *trace.Operand, in *inst) {
	if !m.tracking {
		return // sequential segment before any region: no speculation
	}
	if ir.IsStackAddr(op.Addr) {
		return // per-CPU stacks are private to an epoch
	}
	if in.kind == kLoadSync && op.Flags&trace.FlagUFF != 0 {
		// Forwarding-usefulness bookkeeping for the FilterSync extension
		// (counted per issue, matching the wait counting).
		m.filter.noteUseful(m.code.ch[run.si].ch)
	}
	if m.immuneLoad(run, in) {
		return
	}
	if run.storeWords.has(op.Addr) {
		return // private hit: forwarded from this epoch's own store
	}
	// Value prediction: a predicted load consumes the predicted value
	// instead of the (possibly stale) memory value, so it is never
	// exposed to coherence; verification happens at commit, where a
	// misprediction forces one squash-and-replay (without prediction).
	pc := int(in.origin)
	predictable := (m.pol.Predict || m.pol.StridePredict) && m.table.contains(pc)
	if run.seq {
		// A sequential run never commits and is never a victim, so no
		// code reads its load lines, trainings or mispredictions. The
		// contains above still runs: it refreshes the violation
		// table's LRU tick.
		return
	}
	if predictable {
		// Trainings are collected even during a post-misprediction replay
		// (predictBan) so the predictor learns the committed value and
		// loses confidence in changed ones; only prediction USE is banned.
		run.trainings = append(run.trainings, pcVal{pc: pc, v: op.Val})
		if !run.predictBan {
			if v, ok := m.pred.predict(pc, run.epoch.Index); ok {
				if v != op.Val {
					run.mispredicted = true
					run.mispredictPCs = append(run.mispredictPCs, pc)
				}
				return // value comes from the predictor, not memory
			}
		}
	}
	run.loadLines.add(m.hier.line(op.Addr), loadMark{cycle: m.cycle, pc: pc})
}

// trackStore records the store and applies the eager violation rule: any
// active later epoch that already exposed-loaded this line is squashed
// (the invalidation arrives while the line's speculatively-loaded bit is
// set).
func (m *machine) trackStore(run *epochRun, addr int64) {
	if !m.tracking {
		return // sequential segment before any region: no speculation
	}
	if ir.IsStackAddr(addr) {
		return
	}
	e := run.epoch.Index
	line := m.hier.line(addr)
	run.storeWords.add(addr, struct{}{})
	if !run.seq {
		// Only staleRead reads store lines, at a commit, and a
		// sequential run never commits; its store words still decide
		// private hits.
		run.storeLines.add(line, m.cycle)
	}
	// Signal address buffer: a later store in the producer epoch to an
	// already-forwarded address means the wrong value was forwarded; the
	// producer notices and restarts the consumer (§2.2).
	if _, hit := run.sigBuf[addr]; hit {
		delete(run.sigBuf, addr)
		if cons := m.runOf(e + 1); cons != nil {
			m.res.Violations++
			m.res.ViolByKind["sigbuf"]++
			m.restart(cons)
		}
	}
	if m.pol.PerfectMemory {
		return
	}
	// Sequential segments between regions run as epoch 0, before the
	// (fully committed) previous instance's oldest: no run to violate.
	for j := max(e+1, m.oldest); j < m.nextStart; j++ {
		other := m.runOf(j)
		if mark, loaded := other.loadLines.get(line); loaded && mark.cycle <= m.cycle {
			m.violate(other, "eager", mark.pc)
		}
	}
}

// ---------------------------------------------------------------------------
// Signaling

func (m *machine) signal(run *epochRun, scalar bool) {
	if !m.tracking {
		// Sequential segment (a region preheader signaling initial
		// values): epoch 0 is the oldest at region start, so its waits
		// complete immediately — nothing to deliver.
		return
	}
	ref := m.code.ch[run.si]
	ch := ref.ch
	*m.mailbox(run.epoch.Index+1, ref.box) = mailEntry{ready: m.cycle + int64(m.cfg.CommLat), gen: run.gen, sent: true}
	if !scalar {
		run.signaled[ch] = true
		if addr := run.operand().Addr; !ir.IsStackAddr(addr) && addr != 0 {
			run.sigBuf[addr] = ch
			if len(run.sigBuf) > run.sigBufPeak {
				run.sigBufPeak = len(run.sigBuf)
			}
		}
	}
}

func (m *machine) signalNull(run *epochRun) {
	if !m.tracking {
		return
	}
	ref := m.code.ch[run.si]
	if run.signaled[ref.ch] {
		return // conditional NULL: a signal was already sent this epoch
	}
	*m.mailbox(run.epoch.Index+1, ref.box) = mailEntry{ready: m.cycle + int64(m.cfg.CommLat), gen: run.gen, sent: true}
	run.signaled[ref.ch] = true
}

// ---------------------------------------------------------------------------
// Violations, restarts, cascades

// violate squashes and restarts a run after a load-triggered dependence
// violation, classifying the violating load for the Figure 11 buckets and
// training the hardware violation table.
func (m *machine) violate(victim *epochRun, kind string, loadPC int) {
	m.res.Violations++
	m.res.ViolByKind[kind]++
	// Classification uses the table state BEFORE this violation trains it.
	hw := m.table.contains(loadPC)
	comp := m.pol.CompilerMarks != nil && m.pol.CompilerMarks[loadPC]
	switch {
	case comp && hw:
		m.res.ViolBuckets[BucketBoth]++
	case comp:
		m.res.ViolBuckets[BucketCompiler]++
	case hw:
		m.res.ViolBuckets[BucketHardware]++
	default:
		m.res.ViolBuckets[BucketNeither]++
	}
	m.table.record(loadPC)
	m.restart(victim)
}

// restart squashes a run (all its slots become fail) and begins replay
// after the restart penalty, cascading into any consumer that used the
// squashed run's forwarded values.
func (m *machine) restart(victim *epochRun) {
	m.res.Restarts++
	e := victim.epoch.Index
	oldGen := victim.gen

	if m.curRegion != nil {
		m.curRegion.Slots.Fail += victim.slots.Total()
	}
	victim.slots = Slots{}
	victim.rewind()
	victim.gen++
	victim.finished = false
	victim.finishCycle = 0
	victim.lastComplete = 0
	// Replay state is cleared in place (squash-heavy policies restart
	// the same epochs many times).
	victim.regs, victim.frames = victim.regs[:0], victim.frames[:0]
	victim.push(m.code.regs, m.cycle, ir.None)
	victim.loadLines.reset()
	victim.storeLines.reset()
	victim.storeWords.reset()
	victim.consumedGen = -1
	clear(victim.signaled)
	clear(victim.sigBuf)
	victim.mispredicted = false
	victim.mispredictPCs = victim.mispredictPCs[:0]
	victim.trainings = victim.trainings[:0]
	// The squash-to-restart gap is failed work too (stallFail classifies
	// the stall slots as fail rather than other).
	victim.stallUntil = m.cycle + int64(m.cfg.RestartCost)
	victim.stallFail, victim.gated = true, false
	if victim.span != nil {
		victim.span.Squashes = append(victim.span.Squashes, m.cycle)
	}

	// Cascade: a consumer that consumed this run's (now squashed) signals
	// used values that the hardware can no longer vouch for.
	if cons := m.runOf(e + 1); cons != nil && cons.consumedGen == oldGen {
		m.restart(cons)
	}
}

// ---------------------------------------------------------------------------
// Commit

// tryCommit commits the oldest epoch when it has finished (and survived
// prediction verification), applying commit-time stale-read violations.
func (m *machine) tryCommit() {
	for m.oldest < len(m.epochs) {
		run := m.runOf(m.oldest)
		if run == nil || !run.finished {
			return
		}
		if m.cycle < run.finishCycle+int64(m.cfg.CommitCost) {
			return
		}
		// Value-prediction verification happens at commit: a mispredicted
		// value forces one more pass (without prediction).
		if run.mispredicted {
			run.predictBan = true
			for _, pc := range run.mispredictPCs {
				m.pred.blame(pc)
			}
			m.res.Violations++
			m.res.ViolByKind["mispredict"]++
			m.restart(run)
			return
		}

		// Commit-time rule: active later epochs that loaded one of our
		// stored lines AFTER we stored it read stale data; the commit's
		// invalidations squash them now.
		if !m.pol.PerfectMemory {
			for j := m.oldest + 1; j < m.nextStart; j++ {
				other := m.runOf(j)
				if pc, stale := staleRead(run, other); stale {
					m.violate(other, "stale", pc)
				}
			}
		}

		// Train the predictor with committed values.
		for _, t := range run.trainings {
			m.pred.update(t.pc, t.v, run.epoch.Index)
		}
		if run.sigBufPeak > m.res.SigBufPeak {
			m.res.SigBufPeak = run.sigBufPeak
		}

		if m.curRegion != nil {
			m.curRegion.Slots.Add(run.slots)
			m.curRegion.Epochs++
		}
		m.res.ScalarWaitCycles += run.scalarWait
		m.res.MemWaitCycles += run.memWait
		m.res.HWSyncCycles += run.hwWait

		if run.span != nil {
			run.span.Commit = m.cycle
			m.res.Spans = append(m.res.Spans, *run.span)
		}
		m.runs[m.oldest&m.ringMask] = nil
		m.cpuFree[run.cpu] = m.cycle // commit overhead already elapsed
		m.table.epochCommitted()
		m.oldest++
		putRun(run)
	}
}

// staleRead reports whether `later` loaded any line after `committing`
// stored it (while the store was still speculative), returning the
// violating load's PC. When several lines were read stale, the load
// that happened FIRST is blamed (ties broken by lowest PC): the blamed
// PC trains the violation-history table and therefore feeds Figure 11's
// classification and the H policy's synchronization decisions, so the
// choice is a total order, the same whichever table is walked.
func staleRead(committing, later *epochRun) (int, bool) {
	var best loadMark
	found := false
	consider := func(mark loadMark) {
		if !found || mark.cycle < best.cycle || (mark.cycle == best.cycle && mark.pc < best.pc) {
			best, found = mark, true
		}
	}
	// Walk the smaller table; every match is considered, so the
	// direction cannot change the outcome.
	if committing.storeLines.len() <= later.loadLines.len() {
		for k := range committing.storeLines.len() {
			line, storeCycle := committing.storeLines.at(k)
			if mark, ok := later.loadLines.get(line); ok && mark.cycle > storeCycle {
				consider(mark)
			}
		}
	} else {
		for k := range later.loadLines.len() {
			line, mark := later.loadLines.at(k)
			if storeCycle, ok := committing.storeLines.get(line); ok && mark.cycle > storeCycle {
				consider(mark)
			}
		}
	}
	return best.pc, found
}
