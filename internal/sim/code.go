package sim

import (
	"sync"

	"tlssync/internal/ir"
)

// instKind is what the per-event path does with an instruction beyond
// reading its operands and writing its destination.
type instKind uint8

const (
	kFixed instKind = iota // fixed latency, no side effect
	kLoad
	kLoadSync
	kStore
	kCall
	kRet
	kWaitScalar
	kWaitMemAddr
	kWaitMemVal
	kSignalScalar
	kSignalMem
	kSignalMemNull
)

// wideUses marks an inst whose register uses do not fit inline (a call
// with more than three arguments): they are read from the use span.
const wideUses = 0xff

// inst is one static instruction as the per-event path reads it: 32
// bytes in a dense table indexed by trace.Event.SI, instead of an
// *ir.Instr pointer chase, a use-span lookup and an op switch. The
// channel is kept in a side table (codeTable.ch) that only the wait,
// signal and forwarded-load paths read.
type inst struct {
	kind  instKind
	nUses uint8    // inline uses, or wideUses
	lat   int32    // latency of every kind but loads, which ask the caches
	dst   int32    // register written (ir.None: none); for kRet, the register returned
	use   [3]int32 // registers read, in Instr.AppendUses order
	// origin is the instruction's Origin: the load PC the violation
	// table, the predictor and the oracle sets key on.
	origin int32
}

// newInst builds the record of in, whose register uses are uses.
func newInst(in *ir.Instr, uses []ir.Reg, cfg MachineConfig) inst {
	rec := inst{dst: int32(in.Dst), lat: 1, origin: int32(in.Origin)}
	if len(uses) <= len(rec.use) {
		rec.nUses = uint8(len(uses))
		for i, u := range uses {
			rec.use[i] = int32(u)
		}
	} else {
		rec.nUses = wideUses
	}
	switch in.Op {
	case ir.Bin:
		switch in.Alu {
		case ir.Mul:
			rec.lat = int32(cfg.IntMulLat)
		case ir.Div, ir.Rem:
			rec.lat = int32(cfg.IntDivLat)
		}
	case ir.NewObj:
		rec.lat = int32(cfg.AllocCost)
	case ir.Load:
		rec.kind = kLoad
	case ir.LoadSync:
		rec.kind = kLoadSync
	case ir.Store:
		rec.kind = kStore
	case ir.Call:
		rec.kind, rec.lat = kCall, int32(cfg.CallCost)
	case ir.Ret:
		rec.kind, rec.lat, rec.dst = kRet, int32(cfg.CallCost), int32(in.A)
	case ir.WaitScalar:
		rec.kind = kWaitScalar
	case ir.WaitMemAddr:
		rec.kind = kWaitMemAddr
	case ir.WaitMemVal:
		rec.kind = kWaitMemVal
	case ir.SignalScalar:
		rec.kind = kSignalScalar
	case ir.SignalMem:
		rec.kind = kSignalMem
	case ir.SignalMemNull:
		rec.kind = kSignalMemNull
	}
	return rec
}

// useSpans flattens a static-instruction table into register-use spans:
// the registers instruction si reads are uses[off[si]:off[si+1]], in
// Instr.AppendUses order. It is the single source of the inst records'
// inline uses and the fallback for calls with more than three
// arguments.
type useSpans struct {
	uses []ir.Reg
	off  []int32
}

// build flattens code into s, reusing s's buffers.
func (s *useSpans) build(code ir.Code) {
	s.uses, s.off = s.uses[:0], append(s.off[:0], 0)
	for _, in := range code {
		if in != nil {
			s.uses = in.AppendUses(s.uses)
		}
		s.off = append(s.off, int32(len(s.uses)))
	}
}

// of returns the registers static instruction si reads.
func (s *useSpans) of(si int32) []ir.Reg { return s.uses[s.off[si]:s.off[si+1]] }

// chanRef is what waits, signals and forwarded loads read besides the
// inst record.
type chanRef struct {
	ch  int64 // Instr.Imm: the channel, as the sync filter keys it
	box int32 // dense index of the (channel, scalar) mailbox; waits and signals only
}

// chanKey names a mailbox: scalar and memory channels are numbered
// independently.
type chanKey struct {
	ch     int64
	scalar bool
}

// codeTable is the simulator's view of a trace's static instructions,
// built once per simulation into pooled buffers.
type codeTable struct {
	inst  []inst
	ch    []chanRef
	spans useSpans
	// boxes is how many distinct mailboxes the code's waits and signals
	// name, numbered densely through boxOf.
	boxes int
	boxOf map[chanKey]int32
	// regs is the size of a call frame's register window: one more
	// than the largest register any instruction names.
	regs int
	// hwSlot is the violation table's pc -> slot index: one entry per
	// origin up to the largest in the code, zeroed on every build (see
	// hwTable).
	hwSlot []int32
}

var codePool sync.Pool

// getCodeTable returns the table of code under cfg's latencies.
func getCodeTable(code ir.Code, cfg MachineConfig) *codeTable {
	t, _ := codePool.Get().(*codeTable)
	if t == nil {
		t = &codeTable{boxOf: make(map[chanKey]int32)}
	}
	t.spans.build(code)
	t.inst, t.ch = t.inst[:0], t.ch[:0]
	clear(t.boxOf)
	origins, regs := 0, ir.Reg(0)
	for _, u := range t.spans.uses {
		regs = max(regs, u+1)
	}
	for si, in := range code {
		rec, ref := inst{dst: int32(ir.None), lat: 1}, chanRef{box: -1}
		if in != nil {
			rec, ref.ch = newInst(in, t.spans.of(int32(si)), cfg), in.Imm
			origins = max(origins, in.Origin+1)
			regs = max(regs, in.Dst+1)
			switch rec.kind {
			case kWaitScalar, kSignalScalar:
				ref.box = t.box(chanKey{in.Imm, true})
			case kWaitMemAddr, kWaitMemVal, kSignalMem, kSignalMemNull:
				ref.box = t.box(chanKey{in.Imm, false})
			}
		}
		t.inst = append(t.inst, rec)
		t.ch = append(t.ch, ref)
	}
	t.boxes, t.regs = len(t.boxOf), int(regs)
	t.hwSlot = append(t.hwSlot[:0], make([]int32, origins)...)
	return t
}

// box returns the mailbox index of k, numbering new ones densely.
func (t *codeTable) box(k chanKey) int32 {
	b, ok := t.boxOf[k]
	if !ok {
		b = int32(len(t.boxOf))
		t.boxOf[k] = b
	}
	return b
}

// putCodeTable recycles t; every slice is rebuilt from empty on get.
func putCodeTable(t *codeTable) { codePool.Put(t) }
