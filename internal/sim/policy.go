package sim

// Policy selects the value-communication mechanisms active during a
// simulation, covering every configuration in the paper's evaluation.
type Policy struct {
	Name string

	// HWSync enables hardware-inserted synchronization: loads whose PC is
	// in the violation-history table stall until their epoch is the
	// oldest (paper §4.2, the H bars). The table has
	// MachineConfig.HWTableSize entries with LRU replacement and is reset
	// every HWResetEpochs committed epochs.
	HWSync bool

	// Predict enables hardware last-value prediction for loads in the
	// violation-history table (the P bars).
	Predict bool

	// StridePredict upgrades the predictor to a stride predictor (an
	// extension beyond the paper: the paper's last-value predictor finds
	// forwarded memory values unpredictable, but allocator-style values
	// advance by regular strides). Implies Predict.
	StridePredict bool

	// PerfectMemory makes every load violation-immune with no memory
	// synchronization stalls: the O bars' "perfect value communication
	// through memory" upper bound. Scalar synchronization still applies.
	PerfectMemory bool

	// OracleLoads makes the listed loads (by static instruction Origin)
	// violation-immune and stall-free: the Figure 6 threshold study.
	OracleLoads map[int]bool

	// PerfectSyncedValues completes memory waits instantly and makes
	// synchronized loads always immune: the E bars (perfect prediction of
	// synchronized values).
	PerfectSyncedValues bool

	// StallSyncedUntilOldest makes memory waits ignore forwarded signals
	// and stall until the epoch is the oldest: the L bars (conservative
	// synchronization, like hardware-style stalling applied to the
	// compiler-chosen loads).
	StallSyncedUntilOldest bool

	// CompilerMarks is the set of load Origins the compiler synchronized
	// (from the transformed binary), used to classify violations into the
	// Figure 11 buckets even in runs executing the untransformed binary.
	CompilerMarks map[int]bool

	// FilterSync implements the paper's §4.2 hybrid-enhancement
	// suggestion (iii): "for the hardware to filter out compiler-inserted
	// synchronization that rarely forwards the correct values". The
	// hardware tracks, per memory-sync channel, how often a completed
	// wait actually supplied a usable forwarded value (the
	// use-forwarded-value flag); channels below 10% usefulness after a
	// warm-up of 16 waits stop stalling.
	FilterSync bool
}

// syncFilter tracks per-channel forwarding usefulness for FilterSync.
type syncFilter struct {
	waits  map[int64]int
	useful map[int64]int
}

func newSyncFilter() *syncFilter {
	return &syncFilter{waits: make(map[int64]int), useful: make(map[int64]int)}
}

// filterWarmup and filterMinUseful parameterize the filtering rule.
const (
	filterWarmup    = 16
	filterMinUseful = 0.10
)

// bypass reports whether waits on ch should stop stalling.
func (f *syncFilter) bypass(ch int64) bool {
	w := f.waits[ch]
	if w < filterWarmup {
		return false
	}
	return float64(f.useful[ch]) < filterMinUseful*float64(w)
}

// noteWait records a completed wait; noteUseful a consumed forward.
func (f *syncFilter) noteWait(ch int64)   { f.waits[ch]++ }
func (f *syncFilter) noteUseful(ch int64) { f.useful[ch]++ }

// PolicyU is the baseline: plain speculation for memory, scalar sync only.
func PolicyU() Policy { return Policy{Name: "U"} }

// PolicyO is perfect memory value communication (Figure 2's O bars).
func PolicyO() Policy { return Policy{Name: "O", PerfectMemory: true} }

// PolicyC runs a memory-synchronized binary with no hardware mechanisms
// (the compiler-inserted synchronization bars; T vs C differ only in
// which binary is simulated).
func PolicyC(name string) Policy { return Policy{Name: name} }

// PolicyE idealizes synchronized-value forwarding (Figure 9's E bars).
func PolicyE() Policy { return Policy{Name: "E", PerfectSyncedValues: true} }

// PolicyL stalls synchronized loads until the previous epoch completes
// (Figure 9's L bars).
func PolicyL() Policy { return Policy{Name: "L", StallSyncedUntilOldest: true} }

// PolicyH is hardware-inserted synchronization on the baseline binary.
func PolicyH() Policy { return Policy{Name: "H", HWSync: true} }

// PolicyP is hardware value prediction on the baseline binary.
func PolicyP() Policy { return Policy{Name: "P", Predict: true} }

// PolicyB is the hybrid: the memory-synchronized binary plus hardware
// synchronization.
func PolicyB() Policy { return Policy{Name: "B", HWSync: true} }

// hwTable is the violation-history table: an LRU set of load PCs that
// caused violations, with periodic reset (paper §4.2: "we periodically
// reset the table ... to avoid over-synchronization of
// infrequently-dependent loads"). Entries live in fixed arrays, found
// through a dense pc -> slot index, so contains, which runs for every
// load under H and B, reads two arrays and hashes nothing.
type hwTable struct {
	pcs  []int   // slot -> pc; slots [0, n) are occupied
	when []int64 // slot -> last touch
	n    int
	// slot[pc] is pc's slot plus one (0: not tracked). It covers every
	// load origin of the simulated code and is zero on construction.
	slot   []int32
	tick   int64
	resetN int // committed epochs between resets
	count  int // committed epochs since last reset
}

// newHWTable returns an empty table of size entries over the zeroed
// pc index slot. A size below one still tracks the latest PC.
func newHWTable(size, resetEpochs int, slot []int32) *hwTable {
	size = max(size, 1)
	return &hwTable{pcs: make([]int, size), when: make([]int64, size), slot: slot, resetN: resetEpochs}
}

// record inserts a violating load PC, evicting the LRU entry if full.
func (t *hwTable) record(pc int) {
	t.tick++
	if s := t.slot[pc]; s != 0 {
		t.when[s-1] = t.tick
		return
	}
	s := t.n
	if s < len(t.pcs) {
		t.n++
	} else {
		// Ticks are unique per insert and refresh, so the least recently
		// touched entry is unique: the victim is a total order.
		s = 0
		for i := 1; i < t.n; i++ {
			if t.when[i] < t.when[s] {
				s = i
			}
		}
		t.slot[t.pcs[s]] = 0
	}
	t.pcs[s], t.when[s] = pc, t.tick
	t.slot[pc] = int32(s + 1)
}

// contains reports whether pc is tracked (and refreshes its LRU slot).
func (t *hwTable) contains(pc int) bool {
	s := t.slot[pc]
	if s == 0 {
		return false
	}
	t.tick++
	t.when[s-1] = t.tick
	return true
}

// epochCommitted advances the periodic-reset clock.
func (t *hwTable) epochCommitted() {
	t.count++
	if t.resetN > 0 && t.count >= t.resetN {
		t.count = 0
		for _, pc := range t.pcs[:t.n] {
			t.slot[pc] = 0
		}
		t.n = 0
	}
}

// predictor is a per-PC value predictor with confidence, updated at epoch
// commit. In last-value mode (the paper's) a value is predicted only once
// it has repeated often enough; in stride mode (an extension) a constant
// difference between consecutive committed values is also accepted, which
// captures allocator-style pointers that last-value prediction cannot.
// Unconfident streams are left to ordinary speculation rather than being
// mispredicted every epoch.
type predictor struct {
	last   map[int]int64
	conf   map[int]int
	stride map[int]int64
	sconf  map[int]int
	// lastEpoch is the epoch index of the last training per PC; stride
	// predictions extrapolate by the distance between the predicting
	// epoch and it (per-epoch strides, not per-commit).
	lastEpoch map[int]int
	// bad counts commit-time misprediction squashes per PC; a PC that has
	// burned the machine twice is blacklisted (streams that repeat for
	// stretches and then change would otherwise pay a full-epoch squash
	// at every change).
	bad map[int]int
	// strideMode enables stride prediction.
	strideMode bool
}

// predictMaxBad blacklists a PC after this many misprediction squashes.
const predictMaxBad = 2

// predictConfidence is the confidence level required before predicting.
// Requiring three consecutive confirmations keeps the predictor out of
// streams that merely repeat briefly (the paper finds forwarded memory
// values essentially unpredictable, so the predictor must not thrash).
const predictConfidence = 3

func newPredictor() *predictor {
	return &predictor{
		last:      make(map[int]int64),
		conf:      make(map[int]int),
		stride:    make(map[int]int64),
		sconf:     make(map[int]int),
		lastEpoch: make(map[int]int),
		bad:       make(map[int]int),
	}
}

// blame records a misprediction squash for pc.
func (p *predictor) blame(pc int) { p.bad[pc]++ }

// predict returns the predicted value for pc at the given epoch index if
// confidence is sufficient and the PC has not been blacklisted.
func (p *predictor) predict(pc int, epoch int) (int64, bool) {
	if p.bad[pc] >= predictMaxBad {
		return 0, false
	}
	if p.conf[pc] >= predictConfidence {
		return p.last[pc], true
	}
	if p.strideMode && p.sconf[pc] >= predictConfidence {
		dist := epoch - p.lastEpoch[pc]
		if dist < 1 {
			dist = 1
		}
		return p.last[pc] + p.stride[pc]*int64(dist), true
	}
	return 0, false
}

// update trains the predictor with a committed value observed at the
// given epoch index.
func (p *predictor) update(pc int, v int64, epoch int) {
	old, seen := p.last[pc]
	if seen && old == v {
		if p.conf[pc] < predictConfidence {
			p.conf[pc]++
		}
	} else {
		p.conf[pc] = 0
	}
	if seen {
		// Per-epoch stride: normalize the delta by the epoch distance.
		gap := epoch - p.lastEpoch[pc]
		if gap >= 1 && (v-old)%int64(gap) == 0 {
			d := (v - old) / int64(gap)
			if p.stride[pc] == d {
				if p.sconf[pc] < predictConfidence {
					p.sconf[pc]++
				}
			} else {
				p.stride[pc] = d
				p.sconf[pc] = 0
			}
		} else {
			p.sconf[pc] = 0
		}
	}
	p.last[pc] = v
	p.lastEpoch[pc] = epoch
}
