package sim

import "fmt"

// Slots is the paper's graduation-slot breakdown: every potential
// graduation slot (cycles x issue width x CPUs) is classified as busy
// (an instruction graduated in a run that eventually committed), fail
// (any slot of a run that was squashed), sync (stalled waiting for
// synchronization in a committed run), or other (everything else:
// dependency stalls, cache misses, idle CPUs, commit waits).
type Slots struct {
	Busy  int64
	Fail  int64
	Sync  int64
	Other int64
}

// Total returns the slot count.
func (s Slots) Total() int64 { return s.Busy + s.Fail + s.Sync + s.Other }

// Add accumulates o into s.
func (s *Slots) Add(o Slots) {
	s.Busy += o.Busy
	s.Fail += o.Fail
	s.Sync += o.Sync
	s.Other += o.Other
}

// ViolBucket classifies a violating load for the Figure 11 analysis: by
// which scheme(s) the load would have been synchronized.
type ViolBucket int

// Violation buckets.
const (
	BucketNeither  ViolBucket = iota // synchronized by neither scheme
	BucketCompiler                   // compiler only
	BucketHardware                   // hardware only
	BucketBoth                       // both
	numBuckets
)

var bucketNames = [...]string{"neither", "compiler-only", "hardware-only", "both"}

// String names the bucket.
func (b ViolBucket) String() string { return bucketNames[b] }

// RegionStats aggregates one region's execution across all of its dynamic
// instances under one policy.
type RegionStats struct {
	RegionID int
	Cycles   int64 // wall-clock cycles spent in the region (all instances)
	Slots    Slots
	Epochs   int64 // committed epochs
}

// Result is the outcome of one simulation.
type Result struct {
	Policy  string
	Machine MachineConfig

	Regions map[int]*RegionStats

	SeqCycles   int64 // cycles in sequential segments (1 CPU)
	TotalCycles int64 // SeqCycles + all region cycles

	Violations int64 // epoch squashes due to data-dependence violations
	Restarts   int64 // total squashes (violations + cascades + mispredicts)
	ViolByKind map[string]int64

	// ViolBuckets classifies violating loads per Figure 11.
	ViolBuckets [4]int64

	// Stall accounting (cycles, summed over CPUs, committed runs only).
	ScalarWaitCycles int64
	MemWaitCycles    int64
	HWSyncCycles     int64

	// SigBufPeak is the maximum signal-address-buffer occupancy observed
	// (the paper reports 10 entries always suffice).
	SigBufPeak int

	// Spans holds per-epoch lifetimes when Input.CollectTimeline was set.
	Spans []EpochSpan
}

// RegionCycles sums cycles across regions.
func (r *Result) RegionCycles() int64 {
	var n int64
	for _, rs := range r.Regions {
		n += rs.Cycles
	}
	return n
}

// RegionSlots sums slot breakdowns across regions.
func (r *Result) RegionSlots() Slots {
	var s Slots
	//lint:ignore D001 Slots.Add is integer addition — commutative, so the summation order is unobservable
	for _, rs := range r.Regions {
		s.Add(rs.Slots)
	}
	return s
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := r.RegionSlots()
	return fmt.Sprintf("%s: region=%d cycles seq=%d viol=%d restarts=%d slots{busy=%d fail=%d sync=%d other=%d}",
		r.Policy, r.RegionCycles(), r.SeqCycles, r.Violations, r.Restarts,
		s.Busy, s.Fail, s.Sync, s.Other)
}
