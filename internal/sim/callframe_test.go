package sim

import (
	"testing"

	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// Call-frame timing on a hand-built trace. No paper benchmark and no
// generated program passes more than three arguments, so without this
// trace the wide-call operand path never runs under the digest or the
// stepping fuzz target. The trace covers a five-argument call, a nested
// call, a returned value the caller reads, a callee that reads a
// register a sibling callee at the same depth wrote late (it must read
// as never written), and a squash that lands while the victim is inside
// a callee. Any change to call-frame timing moves the pinned figures.

// callKit is the static code of the trace: a caller that passes five
// arguments to f, and f's callees g, h and k.
type callKit struct {
	p *synthProg
	// Caller: four cheap arguments and a fifth from a miss, the call
	// and a read of its result.
	args     []*ir.Instr
	arg5     *ir.Instr
	callF    *ir.Instr
	useF     *ir.Instr
	callSlow *ir.Instr
	// f: calls g (whose result it reads), then h and k, and returns
	// what it computed from both results.
	fHead, callG, callH, callK, fSum, retF *ir.Instr
	// g returns a value loaded from memory.
	gLoad, retG *ir.Instr
	// h starts a miss into r9 and returns without waiting for it.
	hLoad, retH *ir.Instr
	// k reads r9, which k never wrote: it is ready at k's entry.
	kUse, retK *ir.Instr
	// slow is a chain of misses the squashed epoch is inside.
	slowLoads []*ir.Instr
	retSlow   *ir.Instr
}

func newCallKit() *callKit {
	p := newSynthProg()
	k := &callKit{p: p}
	bin := func(dst, a, b ir.Reg) *ir.Instr {
		in := p.NewInstr(ir.Bin)
		in.Dst, in.A, in.B = dst, a, b
		return in
	}
	call := func(dst ir.Reg, args ...ir.Reg) *ir.Instr {
		in := p.NewInstr(ir.Call)
		in.Dst, in.Args = dst, args
		return in
	}
	ret := func(a ir.Reg) *ir.Instr {
		in := p.NewInstr(ir.Ret)
		in.A = a
		return in
	}
	load := func(dst, a ir.Reg) *ir.Instr {
		in := p.NewInstr(ir.Load)
		in.Dst, in.A = dst, a
		return in
	}
	for r := ir.Reg(1); r <= 4; r++ {
		in := p.NewInstr(ir.Const)
		in.Dst = r
		k.args = append(k.args, in)
	}
	k.arg5 = load(5, 0)
	k.callF = call(6, 1, 2, 3, 4, 5)
	k.useF = bin(7, 6, 6)
	k.callSlow = call(8, 7)

	k.fHead = bin(0, 4, 4)
	k.callG = call(2, 0)
	k.gLoad, k.retG = load(0, 0), ret(0)
	k.callH = call(ir.None)
	k.hLoad, k.retH = load(9, ir.None), ret(ir.None)
	k.callK = call(3)
	k.kUse, k.retK = bin(1, 9, 9), ret(1)
	k.fSum, k.retF = bin(4, 2, 3), ret(4)

	for i := 0; i < 4; i++ {
		k.slowLoads = append(k.slowLoads, load(0, 0))
	}
	k.retSlow = ret(0)
	return k
}

// callSeq is the caller's five-argument call into f, f's nested calls,
// and the read of f's result. Each miss touches a fresh line at base.
func (k *callKit) callSeq(base int64) []trace.Event {
	var out []trace.Event
	for _, in := range k.args {
		out = append(out, evFor(in, 0, 0))
	}
	return append(out,
		evFor(k.arg5, base, 0),
		evFor(k.callF, 0, 0),
		evFor(k.fHead, 0, 0),
		evFor(k.callG, 0, 0),
		evFor(k.gLoad, base+1<<12, 0),
		evFor(k.retG, 0, 0),
		evFor(k.callH, 0, 0),
		evFor(k.hLoad, base+2<<12, 0),
		evFor(k.retH, 0, 0),
		evFor(k.callK, 0, 0),
		evFor(k.kUse, 0, 0),
		evFor(k.retK, 0, 0),
		evFor(k.fSum, 0, 0),
		evFor(k.retF, 0, 0),
		evFor(k.useF, 0, 0),
	)
}

// slowCall calls slow, a chain of misses at base, and returns.
func (k *callKit) slowCall(base int64) []trace.Event {
	out := []trace.Event{evFor(k.callSlow, 0, 0)}
	for i, in := range k.slowLoads {
		out = append(out, evFor(in, base+int64(i)<<12, 0))
	}
	return append(out, evFor(k.retSlow, 0, 0))
}

// callFrameTrace is a sequential segment running callSeq, then a
// region of three epochs. Epoch 0 runs callSeq and stores line X.
// Epoch 1 loads X at once and calls slow, whose misses it sits in when
// epoch 0's store squashes it; its replay loads X again before epoch 0
// commits, so the commit squashes it a second time, again inside slow.
// Then it runs callSeq. Epoch 2 runs callSeq.
func callFrameTrace() *trace.ProgramTrace {
	k := newCallKit()
	const x = 0x20000
	store := mkEvent(k.p, ir.Store, x, 1, ir.None, 0, 1)
	e0 := append(k.callSeq(0x100000), store)
	e1 := append([]trace.Event{mkEvent(k.p, ir.Load, x, 0, 2, 0)}, k.slowCall(0x200000)...)
	e1 = append(e1, k.callSeq(0x300000)...)
	e2 := k.callSeq(0x400000)
	ri := &trace.RegionInstance{RegionID: 0}
	for i, evs := range [][]trace.Event{e0, e1, e2} {
		ri.Epochs = append(ri.Epochs, &trace.Epoch{Index: i, Events: encode(evs)})
	}
	return &trace.ProgramTrace{
		Segments: []trace.Segment{{Seq: encode(k.callSeq(0x800000))}, {Region: ri}},
		Code:     k.p.code(),
	}
}

// TestCallFrameTiming pins the cycle count and slot breakdown of
// callFrameTrace under U, and checks that skipping idle cycles leaves
// them unchanged.
func TestCallFrameTiming(t *testing.T) {
	r := assertSteppingMatches(t, callFrameTrace(), PolicyU())
	rs := r.Regions[0]
	t.Logf("total %d seq %d region %d slots %+v violations %v restarts %d",
		r.TotalCycles, r.SeqCycles, rs.Cycles, rs.Slots, r.ViolByKind, r.Restarts)
	if r.ViolByKind["eager"] != 1 || r.ViolByKind["stale"] != 1 || r.Restarts != 2 || rs.Epochs != 3 {
		t.Fatalf("want an eager and a stale squash and three commits, got %v, %d restarts, %d epochs", r.ViolByKind, r.Restarts, rs.Epochs)
	}
	want := struct {
		total, seq, region int64
		slots              Slots
	}{726, 233, 493, Slots{Busy: 65, Fail: 972, Sync: 0, Other: 6851}}
	if r.TotalCycles != want.total || r.SeqCycles != want.seq || rs.Cycles != want.region {
		t.Errorf("cycles: total %d, sequential %d, region %d; want %d, %d, %d",
			r.TotalCycles, r.SeqCycles, rs.Cycles, want.total, want.seq, want.region)
	}
	if rs.Slots != want.slots {
		t.Errorf("region slots %+v, want %+v", rs.Slots, want.slots)
	}
}
