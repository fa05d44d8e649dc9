package sim

// Sharded sequential-baseline timing.
//
// SimulateSequentialRegions walks the whole trace on one virtual CPU.
// Its only cross-unit state is the cache hierarchy: the register
// scoreboard is rebuilt per unit (runSequential starts a fresh run with
// frames[0].base == 0), and the dependence/synchronization machinery is
// inert in sequential mode (m.runs and m.mail stay nil). Timing is also
// translation-invariant — every readiness comparison shifts uniformly
// with the unit's start cycle — so a unit timed from cycle 0 takes
// exactly as many cycles as it would mid-stream.
//
// That licenses a two-phase decomposition:
//
//	Phase A (serial): walk every memory event in program order through
//	  the cache hierarchy, recording each access's latency. This
//	  preserves the exact LRU state evolution of the serial machine.
//	Phase B (parallel): time each unit (a sequential segment, or one
//	  region epoch) on its own lightweight machine that replays the
//	  recorded latencies instead of touching a cache, then merge the
//	  per-unit cycle counts in program order.
//
// Phase A touches one int32 per memory event; Phase B carries all the
// scoreboard work (issue-width packing, ALU/call latencies, frame
// stacks), which is where the time goes. The merged Result is
// bit-identical to the serial path's, which parallel_diff tests enforce
// across worker counts.

import (
	"context"

	"tlssync/internal/ir"
	"tlssync/internal/parallel"
	"tlssync/internal/trace"
)

// latencySource is where execLatency gets memory-access latencies: the
// live cache hierarchy on the serial paths, or a recorded replay when
// sharding the sequential baseline.
type latencySource interface {
	memLatency(cpu int, addr int64) int
}

func (h *hierarchy) memLatency(cpu int, addr int64) int {
	return h.latency(cpu, addr)
}

// replayLatencies feeds back latencies recorded by the Phase-A cache
// walk, in the same event order they were recorded.
type replayLatencies struct {
	lats []int32
	idx  int
}

func (r *replayLatencies) memLatency(int, int64) int {
	l := r.lats[r.idx]
	r.idx++
	return int(l)
}

// seqUnit is one independently-timeable slice of the trace: a whole
// sequential segment, or a single region epoch.
type seqUnit struct {
	events []trace.Event
	lats   []int32 // recorded latency per memory event, in order
	cycles int64   // filled by Phase B
}

func simulateSeqSharded(in Input) *Result {
	if in.Mach.CPUs == 0 {
		in.Mach = DefaultMachine()
	}

	// Cut the trace into units in program order.
	var units []*seqUnit
	for _, seg := range in.Trace.Segments {
		if seg.Region == nil {
			units = append(units, &seqUnit{events: seg.Seq})
			continue
		}
		for _, e := range seg.Region.Epochs {
			units = append(units, &seqUnit{events: e.Events})
		}
	}

	// Phase A: the serial machine's cache walk. Same hierarchy, same
	// single CPU, same access order (stepSequential consumes events
	// strictly in order, and only Load/LoadSync/Store touch the cache).
	hier := newHierarchy(in.Mach)
	code := in.Trace.Code
	for _, u := range units {
		for i := range u.events {
			switch code[u.events[i].SI].Op {
			case ir.Load, ir.LoadSync, ir.Store:
				u.lats = append(u.lats, int32(hier.latency(0, u.events[i].Addr)))
			}
		}
	}

	// Phase B: time every unit independently on a scoreboard-only
	// machine. No error path: fn is total, so Map can only fail via
	// panic, which it propagates. The use spans are read-only, so every
	// unit machine shares one table.
	spans := newUseSpans(code)
	_ = parallel.Map(context.Background(), in.Workers, len(units), func(_ context.Context, i int) error {
		u := units[i]
		um := &machine{
			in:    in,
			cfg:   in.Mach,
			pol:   in.Policy,
			code:  code,
			spans: spans,
			lat:   &replayLatencies{lats: u.lats},
			res: &Result{
				Policy:     in.Policy.Name,
				Machine:    in.Mach,
				Regions:    make(map[int]*RegionStats),
				ViolByKind: make(map[string]int64),
			},
		}
		um.runSequential(u.events)
		u.cycles = um.cycle
		return nil
	})

	// Merge in program order, replicating the serial path's accounting:
	// SeqCycles accrues only outside regions; region cycles and the
	// nominal one-CPU busy slots accrue per region.
	res := &Result{
		Policy:     in.Policy.Name,
		Machine:    in.Mach,
		Regions:    make(map[int]*RegionStats),
		ViolByKind: make(map[string]int64),
	}
	var cycle int64
	next := 0
	for _, seg := range in.Trace.Segments {
		if seg.Region == nil {
			res.SeqCycles += units[next].cycles
			cycle += units[next].cycles
			next++
			continue
		}
		rs, ok := res.Regions[seg.Region.RegionID]
		if !ok {
			rs = &RegionStats{RegionID: seg.Region.RegionID}
			res.Regions[seg.Region.RegionID] = rs
		}
		start := cycle
		for range seg.Region.Epochs {
			cycle += units[next].cycles
			next++
			rs.Epochs++
		}
		rs.Cycles += cycle - start
		rs.Slots.Busy += cycle - start // nominal: 1 CPU, bookkeeping only
	}
	res.TotalCycles = cycle
	return res
}
