package sim

import "tlssync/internal/trace"

// Warmup is the machine state after a trace's leading sequential
// segments, the stretch before its first region. Dependence tracking
// and signaling turn on only at the first region, and no policy field
// is read before it, so that stretch ends in the same state under every
// policy: the cycle count, the sequential cycles, the loop iterations
// and the caches CPU 0 touched. A figure simulates each trace under
// several policies; building its Warmup once and passing it in
// Input.Warmup lets each of them restore that state and start at the
// first region, with every result byte unchanged.
//
// A Warmup belongs to one trace and one machine configuration, and
// Simulate panics on any other. It is read-only once built, so
// concurrent simulations may share it. It keeps the trace's identity,
// not its event buffers, so it means nothing once the trace is
// Released: drop it with the trace.
type Warmup struct {
	tr   *trace.ProgramTrace
	mach MachineConfig

	next  int // index of the first segment after the prefix
	cycle int64
	seq   int64 // Result.SeqCycles
	iters int64

	l1 []cacheSnap // per CPU
	l2 cacheSnap
}

// cacheSnap is a cache's occupied slots and its LRU clock. After a
// prefix a cache holds a few hundred lines against tens of thousands of
// slots, so the snapshot lists only those.
type cacheSnap struct {
	slots []cacheSlot
	tick  int64
}

// cacheSlot is one occupied slot: its index in tags and lru, and both
// values.
type cacheSlot struct {
	i        int32
	tag, lru int64
}

// NewWarmup simulates the leading sequential segments of tr on mach
// (DefaultMachine when mach.CPUs is 0) and records the state they
// leave.
func NewWarmup(tr *trace.ProgramTrace, mach MachineConfig) *Warmup {
	m := newMachine(Input{Trace: tr, Mach: mach})
	m.runPrefix()
	w := &Warmup{
		tr:    tr,
		mach:  m.cfg,
		next:  m.next,
		cycle: m.cycle,
		seq:   m.res.SeqCycles,
		iters: m.iters,
		l1:    make([]cacheSnap, len(m.hier.l1)),
		l2:    snapCache(&m.hier.l2),
	}
	for i := range m.hier.l1 {
		w.l1[i] = snapCache(&m.hier.l1[i])
	}
	m.finish()
	return w
}

// snapCache records c's occupied slots.
func snapCache(c *cache) cacheSnap {
	s := cacheSnap{tick: c.tick}
	for i, tag := range c.tags {
		if tag != 0 {
			s.slots = append(s.slots, cacheSlot{i: int32(i), tag: tag, lru: c.lru[i]})
		}
	}
	return s
}

// restore writes the snapshot into c, which must be empty.
func (s *cacheSnap) restore(c *cache) {
	for _, sl := range s.slots {
		c.tags[sl.i], c.lru[sl.i] = sl.tag, sl.lru
	}
	c.tick = s.tick
}

// restore puts a fresh machine in the state w recorded, as if it had
// just run the prefix itself.
func (m *machine) restore(w *Warmup) {
	if w.tr != m.in.Trace {
		panic("sim: Warmup was built for another trace")
	}
	if w.mach != m.cfg {
		panic("sim: Warmup was built for another machine configuration")
	}
	m.next, m.cycle, m.res.SeqCycles, m.iters = w.next, w.cycle, w.seq, w.iters
	for i := range w.l1 {
		w.l1[i].restore(&m.hier.l1[i])
	}
	w.l2.restore(&m.hier.l2)
}
