// Package interp is the functional execution engine: a sequential IR
// interpreter that produces the per-epoch instruction traces consumed by
// the dependence profiler and the TLS timing simulator.
//
// Because execution is sequential, every load observes the sequentially
// correct value — including through the TLS synchronization operations,
// whose full runtime protocol (mailboxes, signal address buffer,
// use-forwarded-value flag) is modeled here so that (a) transformed
// programs remain semantically identical to their originals, and (b) the
// protocol outcomes (address match, stale forwarding, local overwrite) are
// recorded on the trace for the timing simulator.
package interp

import (
	"fmt"
	"math"

	"tlssync/internal/cfg"
	"tlssync/internal/ir"
	"tlssync/internal/lang"
	"tlssync/internal/trace"
)

// Region identifies a selected speculative region: a natural loop whose
// iterations become epochs.
type Region struct {
	ID   int
	Func *ir.Func
	Loop *cfg.Loop
}

// Options configure a functional run.
type Options struct {
	// Input is the program's input vector, read by the input(i) builtin
	// (index taken modulo its length). Distinct inputs model the paper's
	// train vs ref data sets.
	Input []int64

	// Seed seeds the deterministic PRNG behind the rnd(n) builtin.
	Seed uint64

	// MaxSteps bounds dynamic instructions (0 means the default of 50M).
	MaxSteps int64

	// Regions are the selected speculative regions. Arrivals at a region's
	// loop header delimit epochs in the trace. An empty list produces a
	// fully sequential trace.
	Regions []*Region
}

// DefaultMaxSteps bounds interpretation when Options.MaxSteps is zero.
const DefaultMaxSteps = int64(50_000_000)

// memMsg is a forwarded (address, value) pair in a memory-sync mailbox.
type memMsg struct {
	addr  int64
	val   int64
	valid bool
	null  bool
	stale bool // producer overwrote addr after signaling (signal-address-buffer hit)
}

type frame struct {
	fn    *ir.Func
	regs  []int64
	base  int64 // frame base address in the stack segment
	block *ir.Block
	idx   int
	// Where to deposit the return value in the caller.
	retDst ir.Reg
}

type interp struct {
	prog *ir.Program
	opts Options

	mem     *memory
	heapPtr int64
	frames  []*frame
	rng     uint64
	steps   int64
	maxStep int64

	// Trace assembly.
	tr        *trace.ProgramTrace
	seq       trace.Events
	regionIns *trace.RegionInstance
	epoch     *trace.Epoch
	epochOrd  int // ordinal of the current epoch within the region instance
	// epochImpure tracks whether the current epoch performed any
	// side effect (store, call, print, signal, allocation); exitRegion
	// folds a side-effect-free final header visit into the previous
	// epoch without rescanning its events.
	epochImpure bool

	// freeFrames recycles popped call frames (and their register
	// slices): call-heavy programs would otherwise allocate one frame +
	// one register file per dynamic call.
	freeFrames []*frame

	// Region state.
	headerMap   map[*ir.Block]*Region
	curRegion   *Region
	regionDepth int

	// TLS protocol state (reset per region instance).
	scalarCur  map[int64]int64
	scalarNext map[int64]int64
	scalarSet  map[int64]bool // validity of scalarCur entries
	memCur     map[int64]memMsg
	memNext    map[int64]memMsg
	uff        map[int64]bool
	// sigAddrs maps forwarded address -> sync ids signaled this epoch
	// (the signal address buffer).
	sigAddrs map[int64][]int64
	// lastStoreEpoch tracks, per address, the epoch ordinal of the last
	// store in the current region instance (for LoadSync local-overwrite
	// detection).
	lastStoreEpoch map[int64]int

	// scalarNextPending buffers scalar signals executed outside any region
	// (loop preheaders signal initial values for epoch 0).
	scalarNextPending map[int64]int64

	// globalsEnd is the exclusive end of the globals segment.
	globalsEnd int64
}

// Run interprets the program from main and returns its trace.
func Run(p *ir.Program, opts Options) (*trace.ProgramTrace, error) {
	it := &interp{
		prog:      p,
		opts:      opts,
		mem:       newMemory(),
		heapPtr:   ir.HeapBase,
		rng:       opts.Seed*2862933555777941757 + 3037000493,
		maxStep:   opts.MaxSteps,
		tr:        &trace.ProgramTrace{},
		headerMap: make(map[*ir.Block]*Region),
		// TLS protocol state exists even outside regions so transformed
		// programs also run correctly with no regions selected (plain
		// sequential semantics); enterRegion resets it.
		scalarCur:      make(map[int64]int64),
		scalarNext:     make(map[int64]int64),
		scalarSet:      make(map[int64]bool),
		memCur:         make(map[int64]memMsg),
		memNext:        make(map[int64]memMsg),
		uff:            make(map[int64]bool),
		sigAddrs:       make(map[int64][]int64),
		lastStoreEpoch: make(map[int64]int),
	}
	if it.maxStep == 0 {
		it.maxStep = DefaultMaxSteps
	}
	it.globalsEnd = ir.GlobalBase
	for _, g := range p.Globals {
		if g.Init != 0 {
			it.mem.store(g.Addr, g.Init)
		}
		if end := g.Addr + g.Size; end > it.globalsEnd {
			it.globalsEnd = end
		}
	}
	for _, r := range opts.Regions {
		it.headerMap[r.Loop.Header] = r
	}
	main, ok := p.FuncMap["main"]
	if !ok {
		return nil, fmt.Errorf("interp: program has no main")
	}
	if main.NParams != 0 {
		return nil, fmt.Errorf("interp: main must take no parameters")
	}
	if id := p.MaxInstrID(); id > math.MaxInt32 {
		return nil, fmt.Errorf("interp: program has %d instruction IDs; trace encoding caps at %d", id, math.MaxInt32)
	}
	it.tr.Code = p.Code()
	it.pushFrame(main, ir.None)
	err := it.run()
	// Simulation memory is private to this run; hand its pages back to
	// the pool whether or not the run succeeded.
	it.mem.release()
	if err != nil {
		return nil, err
	}
	it.flushSeq()
	return it.tr, nil
}

func (it *interp) rnd(n int64) int64 {
	// xorshift64* — deterministic, seedable, stdlib-free.
	it.rng ^= it.rng >> 12
	it.rng ^= it.rng << 25
	it.rng ^= it.rng >> 27
	v := int64((it.rng * 2685821657736338717) >> 1)
	if n <= 0 {
		return 0
	}
	return v % n
}

// pushFrame activates a new frame for fn and returns it with all
// registers zeroed; the caller deposits arguments directly into
// f.regs[0:NParams]. Popped frames are recycled through it.freeFrames.
func (it *interp) pushFrame(fn *ir.Func, retDst ir.Reg) *frame {
	base := ir.StackBase
	if n := len(it.frames); n > 0 {
		prev := it.frames[n-1]
		base = prev.base + prev.fn.FrameSize
	}
	if base+fn.FrameSize > ir.StackLimit {
		panic(interpError{fmt.Errorf("interp: stack overflow in %s", fn.Name)})
	}
	var f *frame
	if n := len(it.freeFrames); n > 0 {
		f = it.freeFrames[n-1]
		it.freeFrames = it.freeFrames[:n-1]
		if cap(f.regs) < fn.NumRegs {
			f.regs = make([]int64, fn.NumRegs)
		} else {
			f.regs = f.regs[:fn.NumRegs]
			clear(f.regs)
		}
		f.fn, f.base, f.block, f.idx, f.retDst = fn, base, fn.Entry, 0, retDst
	} else {
		f = &frame{
			fn:     fn,
			regs:   make([]int64, fn.NumRegs),
			base:   base,
			block:  fn.Entry,
			retDst: retDst,
		}
	}
	// Frame memory is zeroed on entry (MiniC locals are zero-initialized;
	// stack addresses are reused across calls).
	for off := int64(0); off < fn.FrameSize; off += lang.WordSize {
		it.mem.zero(base + off)
	}
	it.frames = append(it.frames, f)
	return f
}

type interpError struct{ err error }

func (it *interp) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(interpError); ok {
				err = ie.err
				return
			}
			panic(r)
		}
	}()
	for len(it.frames) > 0 {
		f := it.frames[len(it.frames)-1]
		if f.idx == 0 {
			it.blockBoundary(f)
			f = it.frames[len(it.frames)-1]
		}
		// Flat dispatch: run the current block's straight-line suffix in
		// one tight loop. exec returns false on any control transfer
		// (branch, call, return), which invalidates the cached block.
		instrs := f.block.Instrs
		for f.idx < len(instrs) {
			it.steps++
			if it.steps > it.maxStep {
				return fmt.Errorf("interp: exceeded %d steps (infinite loop?)", it.maxStep)
			}
			if !it.exec(f, instrs[f.idx]) {
				break
			}
		}
	}
	return nil
}

// blockBoundary handles region enter/exit and epoch boundaries when control
// reaches the start of a block.
func (it *interp) blockBoundary(f *frame) {
	depth := len(it.frames)
	if it.curRegion != nil && depth == it.regionDepth {
		if f.block == it.curRegion.Loop.Header {
			it.nextEpoch()
		} else if !it.curRegion.Loop.Contains(f.block) {
			it.exitRegion()
		}
	}
	if it.curRegion == nil {
		if r, ok := it.headerMap[f.block]; ok && r.Func == f.fn {
			it.enterRegion(r, depth)
		}
	}
}

func (it *interp) enterRegion(r *Region, depth int) {
	it.flushSeq()
	it.curRegion = r
	it.regionDepth = depth
	it.regionIns = &trace.RegionInstance{RegionID: r.ID}
	it.epochOrd = -1
	// Protocol state is cleared in place, not reallocated: region entry
	// is a hot boundary in loop-nest-heavy programs.
	clear(it.scalarCur)
	if it.scalarNextPending != nil {
		it.scalarNext = it.scalarNextPending // signals from the preheader
		it.scalarNextPending = nil
	} else {
		clear(it.scalarNext)
	}
	clear(it.scalarSet)
	clear(it.memCur)
	clear(it.memNext)
	clear(it.uff)
	clear(it.sigAddrs)
	clear(it.lastStoreEpoch)
	it.nextEpoch()
}

func (it *interp) nextEpoch() {
	if it.epoch != nil {
		it.regionIns.Epochs = append(it.regionIns.Epochs, it.epoch)
	}
	it.epochOrd++
	it.epoch = &trace.Epoch{Index: it.epochOrd, Events: trace.GetEvents()}
	it.epochImpure = false
	// Mailbox handover: what was signaled during the previous epoch is now
	// available to this epoch. The consumed generation's maps are cleared
	// and swapped back in as the next producer side, so an epoch boundary
	// allocates nothing but the Epoch header.
	oldScalar := it.scalarCur
	clear(oldScalar)
	it.scalarCur, it.scalarNext = it.scalarNext, oldScalar
	clear(it.scalarSet)
	for k := range it.scalarCur {
		it.scalarSet[k] = true
	}
	oldMem := it.memCur
	clear(oldMem)
	it.memCur, it.memNext = it.memNext, oldMem
	clear(it.sigAddrs)
	for k := range it.uff {
		it.uff[k] = false
	}
}

func (it *interp) exitRegion() {
	if it.epoch != nil {
		// The final header arrival usually just evaluates the exit
		// condition and leaves the loop; those few side-effect-free events
		// belong to the last real epoch (the thread that discovers
		// termination), not to an epoch of their own. An epoch that did
		// real work before leaving (e.g. via break) stays separate.
		// Purity is tracked incrementally (epochImpure, set by exec on any
		// store, call, print, signal or allocation) instead of rescanning
		// the epoch's events here.
		if n := len(it.regionIns.Epochs); !it.epochImpure && n > 0 {
			last := it.regionIns.Epochs[n-1]
			last.Events.AppendAll(it.epoch.Events)
			trace.PutEvents(it.epoch.Events) // merged by copy; recycle the source
		} else {
			it.regionIns.Epochs = append(it.regionIns.Epochs, it.epoch)
		}
		it.epoch = nil
	}
	it.tr.Segments = append(it.tr.Segments, trace.Segment{Region: it.regionIns})
	it.regionIns = nil
	it.curRegion = nil
}

func (it *interp) flushSeq() {
	if it.seq.Len() > 0 {
		it.tr.Segments = append(it.tr.Segments, trace.Segment{Seq: it.seq})
		it.seq = trace.Events{}
	}
}

func (it *interp) emit(ev trace.Event) {
	if it.curRegion != nil {
		it.epoch.Events.Append(ev)
	} else {
		if it.seq.Ops == nil {
			it.seq = trace.GetEvents()
		}
		it.seq.Append(ev)
	}
}

// exec executes one instruction and reports whether execution stayed
// inside the current block (so run's flat dispatch loop can keep
// iterating its cached instruction slice). Control-transfer cases (Call,
// Ret, Br, CondBr) emit their event and return false; every other case
// falls through to the shared emit-and-advance tail.
func (it *interp) exec(f *frame, in *ir.Instr) bool {
	r := f.regs
	ev := trace.Event{SI: int32(in.ID)}
	switch in.Op {
	case ir.Const:
		r[in.Dst] = in.Imm
	case ir.Bin:
		r[in.Dst] = in.Alu.Eval(r[in.A], r[in.B])
	case ir.Neg:
		r[in.Dst] = -r[in.A]
	case ir.Not:
		if r[in.A] == 0 {
			r[in.Dst] = 1
		} else {
			r[in.Dst] = 0
		}
	case ir.Mov:
		r[in.Dst] = r[in.A]
	case ir.Load:
		addr := r[in.A]
		it.checkAddr(addr, in)
		r[in.Dst] = it.mem.load(addr)
		ev.Addr, ev.Val = addr, r[in.Dst]
	case ir.Store:
		addr := r[in.A]
		it.checkAddr(addr, in)
		it.mem.store(addr, r[in.B])
		ev.Addr, ev.Val = addr, r[in.B]
		it.epochImpure = true
		it.noteStore(addr, ev.Val)
	case ir.AddrGlobal:
		g := it.prog.GlobalMap[in.Sym]
		r[in.Dst] = g.Addr + in.Imm
	case ir.AddrLocal:
		r[in.Dst] = f.base + in.Imm
	case ir.NewObj:
		size := (in.Imm + lang.WordSize - 1) / lang.WordSize * lang.WordSize
		r[in.Dst] = it.heapPtr
		it.heapPtr += size
		ev.Addr = r[in.Dst]
		it.epochImpure = true
	case ir.Rnd:
		r[in.Dst] = it.rnd(r[in.A])
	case ir.Input:
		if len(it.opts.Input) == 0 {
			r[in.Dst] = 0
		} else {
			i := r[in.A] % int64(len(it.opts.Input))
			if i < 0 {
				i += int64(len(it.opts.Input))
			}
			r[in.Dst] = it.opts.Input[i]
		}
	case ir.Print:
		it.tr.Output = append(it.tr.Output, r[in.A])
		ev.Val = r[in.A]
		it.epochImpure = true
	case ir.Call:
		callee := it.prog.FuncMap[in.Sym]
		it.epochImpure = true
		it.emit(ev)
		f.idx++ // resume after the call on return
		nf := it.pushFrame(callee, in.Dst)
		for i, a := range in.Args {
			nf.regs[i] = r[a]
		}
		return false
	case ir.Ret:
		var v int64
		if in.A != ir.None {
			v = r[in.A]
		}
		it.emit(ev)
		it.frames = it.frames[:len(it.frames)-1]
		// Returning out of the region function ends the region.
		if it.curRegion != nil && len(it.frames) < it.regionDepth {
			it.exitRegion()
		}
		if len(it.frames) > 0 {
			caller := it.frames[len(it.frames)-1]
			if f.retDst != ir.None {
				caller.regs[f.retDst] = v
			}
		}
		// f is dead (popped, nothing aliases it): recycle it.
		it.freeFrames = append(it.freeFrames, f)
		return false
	case ir.Br:
		it.emit(ev)
		f.block = f.block.Succs[0]
		f.idx = 0
		return false
	case ir.CondBr:
		it.emit(ev)
		if r[in.A] != 0 {
			f.block = f.block.Succs[0]
		} else {
			f.block = f.block.Succs[1]
		}
		f.idx = 0
		return false

	case ir.WaitScalar:
		if it.scalarSet != nil && it.scalarSet[in.Imm] {
			r[in.Dst] = it.scalarCur[in.Imm]
		}
		// If no signal was pending (epoch 0 with no preheader signal),
		// the register keeps its current value: sequentially correct.
		ev.Val = r[in.Dst]
	case ir.SignalScalar:
		if it.curRegion != nil {
			it.scalarNext[in.Imm] = r[in.A]
		} else {
			if it.scalarNextPending == nil {
				it.scalarNextPending = make(map[int64]int64)
			}
			it.scalarNextPending[in.Imm] = r[in.A]
		}
		ev.Val = r[in.A]
		it.epochImpure = true
	case ir.WaitMemAddr:
		m := it.memCur[in.Imm]
		switch {
		case !m.valid || m.null:
			r[in.Dst] = 0
			ev.Flags |= trace.FlagNullSignal
		case m.stale:
			r[in.Dst] = m.addr
			ev.Flags |= trace.FlagStale
		default:
			r[in.Dst] = m.addr
		}
		ev.Addr, ev.Val = r[in.Dst], 0
	case ir.WaitMemVal:
		m := it.memCur[in.Imm]
		r[in.Dst] = m.val
		ev.Val = m.val
	case ir.CheckFwd:
		m := it.memCur[in.Imm]
		faddr, actual := r[in.A], r[in.B]
		it.uff[in.Imm] = faddr != 0 && faddr == actual && m.valid && !m.stale && !m.null
	case ir.LoadSync:
		addr := r[in.A]
		it.checkAddr(addr, in)
		if it.uff[in.Imm] && it.lastStoreEpoch != nil {
			if e, ok := it.lastStoreEpoch[addr]; ok && e == it.epochOrd {
				it.uff[in.Imm] = false // locally overwritten: memory is right
			}
		}
		r[in.Dst] = it.mem.load(addr)
		ev.Addr, ev.Val = addr, r[in.Dst]
		if it.uff[in.Imm] {
			ev.Flags |= trace.FlagUFF
		}
	case ir.SelectFwd:
		if it.uff[in.Imm] {
			r[in.Dst] = r[in.A]
			ev.Flags |= trace.FlagUFF
		} else {
			r[in.Dst] = r[in.B]
		}
		it.uff[in.Imm] = false
		ev.Val = r[in.Dst]
	case ir.SignalMem:
		addr, val := r[in.A], r[in.B]
		it.memNext[in.Imm] = memMsg{addr: addr, val: val, valid: true}
		if it.sigAddrs != nil {
			it.sigAddrs[addr] = append(it.sigAddrs[addr], in.Imm)
		}
		ev.Addr, ev.Val = addr, val
		it.epochImpure = true
	case ir.SignalMemNull:
		// Conditional: only the first signal of an epoch wins, so NULL
		// signals placed on storeless paths never clobber a real one.
		if _, already := it.memNext[in.Imm]; !already {
			it.memNext[in.Imm] = memMsg{valid: true, null: true}
		}
		it.epochImpure = true
	default:
		panic(interpError{fmt.Errorf("interp: unknown op %v", in.Op)})
	}
	it.emit(ev)
	f.idx++
	return true
}

// noteStore updates TLS bookkeeping for a store: the per-region
// last-store-epoch map and the signal address buffer (stale marking).
func (it *interp) noteStore(addr, _ int64) {
	if it.curRegion == nil {
		return
	}
	it.lastStoreEpoch[addr] = it.epochOrd
	if syncs, hit := it.sigAddrs[addr]; hit {
		for _, s := range syncs {
			m := it.memNext[s]
			if m.valid && m.addr == addr {
				m.stale = true
				it.memNext[s] = m
			}
		}
		delete(it.sigAddrs, addr)
	}
}

func (it *interp) checkAddr(addr int64, in *ir.Instr) {
	valid := (addr >= ir.GlobalBase && addr < it.globalsEnd) ||
		(addr >= ir.HeapBase && addr < it.heapPtr) ||
		(addr >= ir.StackBase && addr < ir.StackLimit)
	if addr == 0 {
		panic(interpError{fmt.Errorf("interp: nil dereference at %s (instr %d)", in.Pos, in.ID)})
	}
	if !valid {
		panic(interpError{fmt.Errorf("interp: wild address %#x at %s (instr %d)", addr, in.Pos, in.ID)})
	}
}
