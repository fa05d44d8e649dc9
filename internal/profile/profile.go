// Package profile implements the paper's data-dependence profiling
// (§2.3 "Profiling dependences") plus the loop/coverage statistics used
// for region selection (§3.1).
//
// Each memory reference is named by the pair (static instruction id,
// call stack rooted at the parallelized loop) — context-sensitive but
// flow-insensitive, exactly as in the paper. During a profiling run every
// load is matched with the store that last wrote its address; if that
// store executed in an earlier epoch of the same region instance, an
// inter-epoch RAW dependence is recorded with its distance (in epochs).
// Dependence frequency is measured in "fraction of epochs in which the
// dependence occurs", the unit the paper's 5%/15%/25% thresholds use.
package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// Ref names a memory reference: a static instruction plus the call path
// (call-site instruction IDs, outermost first) from the parallelized loop.
type Ref struct {
	Instr int    // static instruction ID (ir.Instr.Origin for clones)
	Path  string // dash-joined call-site IDs, "" for loop-body references
}

// String renders the reference like "ld17@3-9".
func (r Ref) String() string {
	if r.Path == "" {
		return fmt.Sprintf("i%d", r.Instr)
	}
	return fmt.Sprintf("i%d@%s", r.Instr, r.Path)
}

// PathIDs parses the call path back into instruction IDs.
func (r Ref) PathIDs() []int {
	if r.Path == "" {
		return nil
	}
	parts := strings.Split(r.Path, "-")
	ids := make([]int, len(parts))
	for i, p := range parts {
		ids[i], _ = strconv.Atoi(p)
	}
	return ids
}

// MakePath joins call-site IDs into a path string.
func MakePath(ids []int) string {
	if len(ids) == 0 {
		return ""
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, "-")
}

// DepKey identifies an inter-epoch RAW dependence: producer store and
// consumer load.
type DepKey struct {
	Store Ref
	Load  Ref
}

// DepStat accumulates statistics for one dependence.
type DepStat struct {
	// EpochCount is the number of epochs in which the dependence occurred
	// at least once (the paper's frequency unit).
	EpochCount int
	// D1Epochs is the number of epochs in which the dependence occurred
	// at distance 1 (producer is the immediately preceding epoch) —
	// the only distance producer-to-next-epoch forwarding can satisfy.
	D1Epochs int
	// WinEpochs is the number of epochs in which the dependence occurred
	// at distance <= OverlapWindow. Dependences beyond the machine's
	// epoch-overlap window can never cause violations (their producer has
	// always committed), so group formation thresholds on this count:
	// synchronizing a longer dependence would be pure overhead without
	// even the paper's TWOLF justification of "may happen depending on
	// timing".
	WinEpochs int
	// Dynamic is the raw number of dependent load executions.
	Dynamic int
	// DistHist histograms dependence distance in epochs.
	DistHist map[int]int
}

// RegionProfile aggregates dependence statistics for one region across all
// of its dynamic instances.
type RegionProfile struct {
	RegionID  int
	Epochs    int // total epochs profiled
	Instances int
	Events    int64 // dynamic instructions inside the region

	// Deps maps each observed inter-epoch dependence to its stats.
	Deps map[DepKey]*DepStat

	// LoadDepEpochs counts, per load reference, the epochs in which the
	// load consumed a value produced by an earlier epoch (any producer).
	LoadDepEpochs map[Ref]int

	// LoadDepEpochsByInstr is LoadDepEpochs aggregated over call paths
	// (per static instruction), used by the hardware-style analyses.
	LoadDepEpochsByInstr map[int]int
}

// Frequency returns the dependence's frequency as a fraction of all epochs.
func (rp *RegionProfile) Frequency(k DepKey) float64 {
	if rp.Epochs == 0 {
		return 0
	}
	return float64(rp.Deps[k].EpochCount) / float64(rp.Epochs)
}

// OverlapWindow is the number of epochs that can be simultaneously active
// (the simulated machine's CPU count): dependences farther apart can
// never violate.
const OverlapWindow = 4

// FrequencyD1 returns the fraction of epochs in which the dependence
// occurred at distance 1 — the frequency that decides whether forwarding
// between consecutive epochs can help.
func (rp *RegionProfile) FrequencyD1(k DepKey) float64 {
	if rp.Epochs == 0 {
		return 0
	}
	return float64(rp.Deps[k].D1Epochs) / float64(rp.Epochs)
}

// FrequencyWin returns the fraction of epochs in which the dependence
// occurred within the overlap window — the default thresholding unit for
// group formation.
func (rp *RegionProfile) FrequencyWin(k DepKey) float64 {
	if rp.Epochs == 0 {
		return 0
	}
	return float64(rp.Deps[k].WinEpochs) / float64(rp.Epochs)
}

// LoadsAboveThreshold returns the static instruction IDs of loads whose
// inter-epoch dependence frequency exceeds thresh (0.05 = 5% of epochs).
func (rp *RegionProfile) LoadsAboveThreshold(thresh float64) map[int]bool {
	out := make(map[int]bool)
	if rp.Epochs == 0 {
		return out
	}
	for id, n := range rp.LoadDepEpochsByInstr {
		if float64(n)/float64(rp.Epochs) > thresh {
			out[id] = true
		}
	}
	return out
}

// FrequentDeps returns the dependences whose within-overlap-window
// frequency exceeds the threshold, sorted by descending frequency (stable
// order for determinism). Window-bounded thresholding keeps the paper's
// TWOLF over-synchronization behaviour (a frequent distance-2..4
// dependence that rarely violates at runtime still gets synchronized)
// while excluding far dependences that can never violate. When d1Only is
// set, only the distance-1 frequency counts — the strictest variant, an
// ablation knob.
func (rp *RegionProfile) FrequentDeps(thresh float64, d1Only bool) []DepKey {
	freq := rp.FrequencyWin
	if d1Only {
		freq = rp.FrequencyD1
	}
	var keys []DepKey
	//lint:ignore D001 freq only filters membership (a set property); keys are explicitly sorted below before use
	for k := range rp.Deps {
		if freq(k) > thresh {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		fi, fj := freq(keys[i]), freq(keys[j])
		if fi != fj {
			return fi > fj
		}
		if keys[i].Load != keys[j].Load {
			return refLess(keys[i].Load, keys[j].Load)
		}
		return refLess(keys[i].Store, keys[j].Store)
	})
	return keys
}

func refLess(a, b Ref) bool {
	if a.Instr != b.Instr {
		return a.Instr < b.Instr
	}
	return a.Path < b.Path
}

// DistanceHistogram aggregates dependence distances across all deps.
func (rp *RegionProfile) DistanceHistogram() map[int]int {
	h := make(map[int]int)
	for _, st := range rp.Deps {
		for d, n := range st.DistHist {
			h[d] += n
		}
	}
	return h
}

// Profile is the result of analyzing a trace.
type Profile struct {
	Regions map[int]*RegionProfile

	// TotalEvents is the program's total dynamic instruction count;
	// SeqEvents the portion outside all regions.
	TotalEvents int64
	SeqEvents   int64
}

// Coverage returns the fraction of dynamic instructions spent inside the
// given region (the paper's region coverage).
func (p *Profile) Coverage(regionID int) float64 {
	if p.TotalEvents == 0 {
		return 0
	}
	rp, ok := p.Regions[regionID]
	if !ok {
		return 0
	}
	return float64(rp.Events) / float64(p.TotalEvents)
}

// lastWrite records who last wrote an address within a region instance.
type lastWrite struct {
	epoch int // epoch ordinal within the instance
	ref   Ref
}

// Analyze profiles a trace: dependence statistics per region plus coverage.
func Analyze(tr *trace.ProgramTrace) *Profile {
	p := &Profile{Regions: make(map[int]*RegionProfile)}
	for _, seg := range tr.Segments {
		if seg.Region == nil {
			p.SeqEvents += int64(seg.Seq.Len())
			p.TotalEvents += int64(seg.Seq.Len())
			continue
		}
		ri := seg.Region
		rp, ok := p.Regions[ri.RegionID]
		if !ok {
			rp = &RegionProfile{
				RegionID:             ri.RegionID,
				Deps:                 make(map[DepKey]*DepStat),
				LoadDepEpochs:        make(map[Ref]int),
				LoadDepEpochsByInstr: make(map[int]int),
			}
			p.Regions[ri.RegionID] = rp
		}
		rp.Instances++
		analyzeInstance(ri, rp, tr.Code)
		for _, e := range ri.Epochs {
			rp.Events += int64(e.Events.Len())
			p.TotalEvents += int64(e.Events.Len())
		}
		rp.Epochs += len(ri.Epochs)
	}
	return p
}

func analyzeInstance(ri *trace.RegionInstance, rp *RegionProfile, code ir.Code) {
	writers := make(map[int64]lastWrite)
	// Per-epoch dedup sets: a dependence and a violating load are counted
	// once per epoch. The sets are allocated once per instance and
	// cleared per epoch — region traces routinely hold thousands of
	// epochs, and five fresh maps per epoch used to show up in the
	// allocation profile (docs/perf.md).
	depSeen := make(map[DepKey]bool)
	depSeenD1 := make(map[DepKey]bool)
	depSeenWin := make(map[DepKey]bool)
	loadSeen := make(map[Ref]bool)
	instrSeen := make(map[int]bool)
	var stack []int
	for _, e := range ri.Epochs {
		clear(depSeen)
		clear(depSeenD1)
		clear(depSeenWin)
		clear(loadSeen)
		clear(instrSeen)
		stack = stack[:0]
		for i, d := 0, 0; i < e.Events.Len(); i++ {
			var ev trace.Event
			ev, d = e.Events.Decode(i, d)
			in := code[ev.SI]
			switch in.Op {
			case ir.Call:
				stack = append(stack, in.Origin)
			case ir.Ret:
				if len(stack) > 0 {
					stack = stack[:len(stack)-1]
				}
			case ir.Store:
				if ir.IsStackAddr(ev.Addr) {
					continue
				}
				writers[ev.Addr] = lastWrite{
					epoch: e.Index,
					ref:   Ref{Instr: in.Origin, Path: MakePath(stack)},
				}
			case ir.Load, ir.LoadSync:
				if ir.IsStackAddr(ev.Addr) {
					continue
				}
				w, ok := writers[ev.Addr]
				if !ok || w.epoch >= e.Index {
					continue // no producer, or intra-epoch
				}
				loadRef := Ref{Instr: in.Origin, Path: MakePath(stack)}
				key := DepKey{Store: w.ref, Load: loadRef}
				st, ok := rp.Deps[key]
				if !ok {
					st = &DepStat{DistHist: make(map[int]int)}
					rp.Deps[key] = st
				}
				st.Dynamic++
				dist := e.Index - w.epoch
				st.DistHist[dist]++
				if !depSeen[key] {
					depSeen[key] = true
					st.EpochCount++
				}
				if dist == 1 && !depSeenD1[key] {
					depSeenD1[key] = true
					st.D1Epochs++
				}
				if dist <= OverlapWindow && !depSeenWin[key] {
					depSeenWin[key] = true
					st.WinEpochs++
				}
				if !loadSeen[loadRef] {
					loadSeen[loadRef] = true
					rp.LoadDepEpochs[loadRef]++
				}
				if !instrSeen[loadRef.Instr] {
					instrSeen[loadRef.Instr] = true
					rp.LoadDepEpochsByInstr[loadRef.Instr]++
				}
			}
		}
	}
}
