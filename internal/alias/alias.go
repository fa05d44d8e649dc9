// Package alias implements a flow-insensitive, field-insensitive,
// Andersen-style inclusion-based points-to analysis over the IR.
//
// The paper positions pointer analysis as the static complement to
// dependence profiling (§1.1: "Pointer analysis, especially
// probabilistic, inter-procedural and context-sensitive pointer analysis
// could help us obtain this information with less detailed profiling")
// and §2.2 explains why neither must- nor may-alias information alone can
// select the loads to synchronize. This package provides the may-alias
// side: abstract locations are globals, heap allocation sites, and a
// single stack summary; the analysis computes which locations each
// register and each location may point to, and from that which
// (store, load) pairs may be dynamically dependent.
//
// Its two uses in this repository:
//
//   - cross-checking the profiler: every profiled dependence must be
//     within the static may-alias relation (a soundness property test);
//   - reporting how much tighter profiling is than static analysis (the
//     paper's argument for profiling: may-alias sets are far too big to
//     synchronize wholesale).
package alias

import (
	"fmt"
	"sort"

	"tlssync/internal/ir"
)

// Loc is an abstract memory location.
type Loc int

// Location space: index 0..G-1 are globals (by Program.Globals order),
// then heap allocation sites (one per NewObj instruction), then the
// single stack summary location.
type Analysis struct {
	prog *ir.Program

	globals   []*ir.Global
	heapSites []int // NewObj instruction IDs, ordered
	heapIndex map[int]int

	numLocs  int
	stackLoc Loc

	// regPts[funcName][reg] = set of locations the register may point to.
	regPts map[string][]locset
	// memPts[loc] = locations that pointers stored AT loc may point to.
	memPts []locset
}

// locset is a small sorted set of Locs.
type locset map[Loc]bool

func (s locset) addAll(o locset) bool {
	changed := false
	for l := range o {
		if !s[l] {
			s[l] = true
			changed = true
		}
	}
	return changed
}

// Analyze runs the points-to analysis to fixpoint.
func Analyze(prog *ir.Program) *Analysis {
	a := &Analysis{
		prog:      prog,
		globals:   prog.Globals,
		heapIndex: make(map[int]int),
		regPts:    make(map[string][]locset),
	}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.NewObj {
					a.heapIndex[in.ID] = len(a.heapSites)
					a.heapSites = append(a.heapSites, in.ID)
				}
			}
		}
	}
	a.numLocs = len(a.globals) + len(a.heapSites) + 1
	a.stackLoc = Loc(a.numLocs - 1)
	a.memPts = make([]locset, a.numLocs)
	for i := range a.memPts {
		a.memPts[i] = make(locset)
	}
	for _, f := range prog.Funcs {
		regs := make([]locset, f.NumRegs)
		for i := range regs {
			regs[i] = make(locset)
		}
		a.regPts[f.Name] = regs
	}
	a.solve()
	return a
}

// globalLoc returns the abstract location of a named global.
func (a *Analysis) globalLoc(name string) Loc {
	for i, g := range a.globals {
		if g.Name == name {
			return Loc(i)
		}
	}
	return a.stackLoc // unreachable for verified programs
}

// heapLoc returns the abstract location of an allocation site.
func (a *Analysis) heapLoc(instrID int) Loc {
	return Loc(len(a.globals) + a.heapIndex[instrID])
}

// LocString names a location for reports.
func (a *Analysis) LocString(l Loc) string {
	switch {
	case int(l) < len(a.globals):
		return a.globals[l].Name
	case l == a.stackLoc:
		return "<stack>"
	default:
		return fmt.Sprintf("heap@%d", a.heapSites[int(l)-len(a.globals)])
	}
}

// solve iterates inclusion constraints to fixpoint.
func (a *Analysis) solve() {
	for changed := true; changed; {
		changed = false
		for _, f := range a.prog.Funcs {
			regs := a.regPts[f.Name]
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if a.apply(f, regs, in) {
						changed = true
					}
				}
			}
		}
	}
}

func (a *Analysis) apply(f *ir.Func, regs []locset, in *ir.Instr) bool {
	changed := false
	switch in.Op {
	case ir.AddrGlobal:
		l := a.globalLoc(in.Sym)
		if !regs[in.Dst][l] {
			regs[in.Dst][l] = true
			changed = true
		}
	case ir.AddrLocal:
		if !regs[in.Dst][a.stackLoc] {
			regs[in.Dst][a.stackLoc] = true
			changed = true
		}
	case ir.NewObj:
		l := a.heapLoc(in.ID)
		if !regs[in.Dst][l] {
			regs[in.Dst][l] = true
			changed = true
		}
	case ir.Mov, ir.Neg, ir.Not:
		if in.A != ir.None && in.HasDst() {
			changed = regs[in.Dst].addAll(regs[in.A])
		}
	case ir.Bin:
		// Pointer arithmetic (field offsets, indexing) preserves the
		// pointed-to object under field-insensitive analysis; arithmetic
		// on non-pointers adds nothing (empty sets).
		if regs[in.Dst].addAll(regs[in.A]) {
			changed = true
		}
		if regs[in.Dst].addAll(regs[in.B]) {
			changed = true
		}
	case ir.Load, ir.LoadSync:
		//lint:ignore D001 points-to set union is commutative and the changed flag is monotone
		for l := range regs[in.A] {
			if regs[in.Dst].addAll(a.memPts[l]) {
				changed = true
			}
		}
	case ir.Store:
		//lint:ignore D001 points-to set union is commutative and the changed flag is monotone
		for l := range regs[in.A] {
			if a.memPts[l].addAll(regs[in.B]) {
				changed = true
			}
		}
	case ir.SelectFwd:
		if regs[in.Dst].addAll(regs[in.A]) {
			changed = true
		}
		if regs[in.Dst].addAll(regs[in.B]) {
			changed = true
		}
	case ir.WaitMemVal, ir.WaitMemAddr:
		// Forwarded values may be any pointer the corresponding signals
		// carry; conservatively, anything stored anywhere. Approximate by
		// the union of all memory points-to sets only when signals exist;
		// keep simple and sound: forwarded ADDRESSES mirror checked
		// addresses, and forwarded VALUES are selected against memory
		// loads via SelectFwd, so both flows are already covered by the
		// Load/Store constraints of the untransformed accesses. Treat as
		// no-op.
	case ir.Call:
		callee := a.prog.FuncMap[in.Sym]
		if callee == nil {
			break
		}
		calleeRegs := a.regPts[callee.Name]
		for i, arg := range in.Args {
			if i < callee.NParams {
				if calleeRegs[ir.Reg(i)].addAll(regs[arg]) {
					changed = true
				}
			}
		}
		// Return flow: any Ret operand in the callee feeds our Dst.
		if in.Dst != ir.None {
			for _, cb := range callee.Blocks {
				for _, cin := range cb.Instrs {
					if cin.Op == ir.Ret && cin.A != ir.None {
						if regs[in.Dst].addAll(calleeRegs[cin.A]) {
							changed = true
						}
					}
				}
			}
		}
	}
	return changed
}

// MayAlias reports whether two address registers may reference the same
// abstract location.
func (a *Analysis) MayAlias(fnA string, ra ir.Reg, fnB string, rb ir.Reg) bool {
	sa, sb := a.regPts[fnA], a.regPts[fnB]
	if sa == nil || sb == nil {
		return true // unknown function: be conservative
	}
	for l := range sa[ra] {
		if sb[rb][l] {
			return true
		}
	}
	return false
}

// AccessSite is a static memory access with its may-point-to set.
type AccessSite struct {
	Func    string
	Instr   *ir.Instr
	IsStore bool
	Locs    []Loc
}

// MemoryAccesses returns every load/store in the program with its
// resolved location set.
func (a *Analysis) MemoryAccesses() []AccessSite {
	var out []AccessSite
	for _, f := range a.prog.Funcs {
		regs := a.regPts[f.Name]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				var isStore bool
				switch in.Op {
				case ir.Load, ir.LoadSync:
					isStore = false
				case ir.Store:
					isStore = true
				default:
					continue
				}
				var locs []Loc
				for l := range regs[in.A] {
					locs = append(locs, l)
				}
				sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
				out = append(out, AccessSite{Func: f.Name, Instr: in, IsStore: isStore, Locs: locs})
			}
		}
	}
	return out
}

// DepPair is a statically-possible store→load dependence (by instruction
// ID), with the locations they may share.
type DepPair struct {
	Store, Load int
	Shared      []Loc
}

// MayDeps returns every (store, load) pair whose location sets intersect,
// excluding pairs that can only meet on the stack summary (per-epoch
// stacks are private, matching the profiler's exclusion). This is the
// paper's "may-alias would synchronize all of these" set.
func (a *Analysis) MayDeps() []DepPair {
	accesses := a.MemoryAccesses()
	var stores, loads []AccessSite
	for _, s := range accesses {
		if s.IsStore {
			stores = append(stores, s)
		} else {
			loads = append(loads, s)
		}
	}
	var out []DepPair
	for _, st := range stores {
		stSet := make(locset, len(st.Locs))
		for _, l := range st.Locs {
			if l != a.stackLoc {
				stSet[l] = true
			}
		}
		if len(stSet) == 0 {
			continue
		}
		for _, ld := range loads {
			var shared []Loc
			for _, l := range ld.Locs {
				if stSet[l] {
					shared = append(shared, l)
				}
			}
			if len(shared) > 0 {
				out = append(out, DepPair{Store: st.Instr.ID, Load: ld.Instr.ID, Shared: shared})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Store != out[j].Store {
			return out[i].Store < out[j].Store
		}
		return out[i].Load < out[j].Load
	})
	return out
}

// MayDepSet returns MayDeps as a membership set keyed by
// (store instruction ID, load instruction ID).
func (a *Analysis) MayDepSet() map[[2]int]bool {
	out := make(map[[2]int]bool)
	for _, d := range a.MayDeps() {
		out[[2]int{d.Store, d.Load}] = true
	}
	return out
}
