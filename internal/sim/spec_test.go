package sim

// Focused edge-case tests for the speculation machinery: cascading
// restarts, mailbox generation invalidation, commit ordering, doomed
// (stale-read) violations, and idle-slot accounting. These complement the
// end-to-end policy tests in sim_test.go by pinning down individual
// mechanisms.

import (
	"strings"
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/ir"
	"tlssync/internal/trace"
)

// synthProg issues synthetic instructions and remembers them so the
// trace's Code table can be built — real programs get theirs from
// Program.Code() (which walks function bodies), but these test
// instructions are never attached to a block.
type synthProg struct {
	*ir.Program
	insts []*ir.Instr
}

func newSynthProg() *synthProg { return &synthProg{Program: ir.NewProgram()} }

func (p *synthProg) NewInstr(op ir.Op) *ir.Instr {
	in := p.Program.NewInstr(op)
	p.insts = append(p.insts, in)
	return in
}

func (p *synthProg) code() ir.Code {
	tbl := make(ir.Code, p.MaxInstrID())
	for _, in := range p.insts {
		tbl[in.ID] = in
	}
	return tbl
}

// evFor builds the trace event for an existing instruction.
func evFor(in *ir.Instr, addr, val int64, flags ...uint8) trace.Event {
	ev := trace.Event{SI: int32(in.ID), Addr: addr, Val: val}
	for _, f := range flags {
		ev.Flags |= f
	}
	return ev
}

// mkEvent builds a trace event for a fresh synthetic instruction.
func mkEvent(p *synthProg, op ir.Op, addr, val int64, regs ...ir.Reg) trace.Event {
	in := p.NewInstr(op)
	if len(regs) > 0 {
		in.Dst = regs[0]
	}
	if len(regs) > 1 {
		in.A = regs[1]
	}
	if len(regs) > 2 {
		in.B = regs[2]
	}
	return evFor(in, addr, val)
}

// encode packs an event list into a trace stream.
func encode(evs []trace.Event) trace.Events {
	var e trace.Events
	for _, ev := range evs {
		e.Append(ev)
	}
	return e
}

// synthTrace builds a single region instance from per-epoch event lists.
func synthTrace(p *synthProg, epochs ...[]trace.Event) *trace.ProgramTrace {
	ri := &trace.RegionInstance{RegionID: 0}
	for i, evs := range epochs {
		ri.Epochs = append(ri.Epochs, &trace.Epoch{Index: i, Events: encode(evs)})
	}
	return &trace.ProgramTrace{Segments: []trace.Segment{{Region: ri}}, Code: p.code()}
}

// filler returns n cheap ALU events to pad an epoch.
func filler(p *synthProg, n int) []trace.Event {
	out := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		in := p.NewInstr(ir.Const)
		in.Dst = ir.Reg(i % 4)
		out = append(out, evFor(in, 0, 0))
	}
	return out
}

func TestEagerViolationStoreHitsExposedLoad(t *testing.T) {
	p := newSynthProg()
	const addr = 0x20000
	// Epoch 0: long prefix, then store to addr.
	e0 := append(filler(p, 80), mkEvent(p, ir.Store, addr, 1, ir.None, 0, 1))
	// Epoch 1: loads addr immediately (before epoch 0's store executes).
	e1 := append([]trace.Event{mkEvent(p, ir.Load, addr, 0, 2, 0)}, filler(p, 40)...)
	r := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU()})
	if r.ViolByKind["eager"] == 0 {
		t.Errorf("expected an eager violation: %v", r.ViolByKind)
	}
	if r.Violations == 0 || r.Restarts == 0 {
		t.Error("violation/restart counters not incremented")
	}
}

func TestStaleReadViolationAtCommit(t *testing.T) {
	p := newSynthProg()
	const addr = 0x20000
	// Epoch 0: stores addr early, then a long tail (stays uncommitted).
	e0 := append([]trace.Event{mkEvent(p, ir.Store, addr, 1, ir.None, 0, 1)}, filler(p, 100)...)
	// Epoch 1: loads addr late (after the store executed, producer active).
	e1 := append(filler(p, 60), mkEvent(p, ir.Load, addr, 0, 2, 0))
	r := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU()})
	if r.ViolByKind["stale"] == 0 {
		t.Errorf("expected a stale-read violation at commit: %v", r.ViolByKind)
	}
}

func TestPrivateHitNoViolation(t *testing.T) {
	p := newSynthProg()
	const addr = 0x20000
	// Epoch 1 stores addr itself before loading: private hit, immune.
	e0 := append(filler(p, 80), mkEvent(p, ir.Store, addr, 1, ir.None, 0, 1))
	e1 := append([]trace.Event{
		mkEvent(p, ir.Store, addr, 7, ir.None, 0, 1),
		mkEvent(p, ir.Load, addr, 7, 2, 0),
	}, filler(p, 40)...)
	r := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU()})
	if r.ViolByKind["eager"] != 0 {
		t.Errorf("private hit must not be violated eagerly: %v", r.ViolByKind)
	}
	// Note: epoch 1's own store to the line epoch 0 also stores can still
	// trigger ordering hazards in other kinds; the eager load exposure is
	// what this test pins down.
}

func TestFalseSharingLineGranularity(t *testing.T) {
	p := newSynthProg()
	// Distinct words, same 32-byte line.
	e0 := append(filler(p, 80), mkEvent(p, ir.Store, 0x20000, 1, ir.None, 0, 1))
	e1 := append([]trace.Event{mkEvent(p, ir.Load, 0x20008, 0, 2, 0)}, filler(p, 40)...)
	r := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU()})
	if r.Violations == 0 {
		t.Error("false sharing not detected at line granularity")
	}

	// With 8-byte lines, no violation.
	mach := DefaultMachine()
	mach.LineSize = 8
	r2 := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU(), Mach: mach})
	if r2.Violations != 0 {
		t.Errorf("word-granularity tracking still violated: %d", r2.Violations)
	}
}

func TestStackAddressesNotTracked(t *testing.T) {
	p := newSynthProg()
	addr := ir.StackBase + 0x100
	e0 := append(filler(p, 80), mkEvent(p, ir.Store, addr, 1, ir.None, 0, 1))
	e1 := append([]trace.Event{mkEvent(p, ir.Load, addr, 0, 2, 0)}, filler(p, 40)...)
	r := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU()})
	if r.Violations != 0 {
		t.Errorf("stack accesses tracked: %d violations", r.Violations)
	}
}

func TestCascadeRestartOnProducerSquash(t *testing.T) {
	p := newSynthProg()
	const addrA = 0x20000 // line A: epoch0 -> epoch1 dependence
	const sync = 0
	// Epoch 0: exposed-loads line B late... build a 3-epoch chain:
	//   epoch 0 stores line A late -> violates epoch 1 (loaded A early).
	//   epoch 1 signaled epoch 2 before being squashed -> cascade.
	sigIn := p.NewInstr(ir.SignalMem)
	sigIn.Imm = sync
	sigIn.A, sigIn.B = 0, 1

	waitA := p.NewInstr(ir.WaitMemAddr)
	waitA.Dst, waitA.Imm = 3, sync

	e0 := append(filler(p, 120), mkEvent(p, ir.Store, addrA, 5, ir.None, 0, 1))
	e1 := append([]trace.Event{
		mkEvent(p, ir.Load, addrA, 0, 2, 0), // exposed early: will be violated
		evFor(sigIn, 0x30000, 9),            // signals epoch 2 early
	}, filler(p, 60)...)
	e2 := append([]trace.Event{
		evFor(waitA, 0x30000, 0), // consumes epoch 1's signal
	}, filler(p, 30)...)

	r := Simulate(Input{Trace: synthTrace(p, e0, e1, e2), Policy: PolicyU()})
	// Epoch 1 violated by epoch 0's store; epoch 2 consumed epoch 1's
	// (now withdrawn) signal and must cascade.
	if r.Violations < 1 {
		t.Fatalf("no violations: %v", r.ViolByKind)
	}
	if r.Restarts < 2 {
		t.Errorf("expected cascade restart of the consumer: restarts=%d", r.Restarts)
	}
}

func TestSignalAddressBufferRestartsConsumer(t *testing.T) {
	p := newSynthProg()
	const sync = 0
	const addr = 0x20000
	sigIn := p.NewInstr(ir.SignalMem)
	sigIn.Imm = sync
	sigIn.A, sigIn.B = 0, 1
	waitA := p.NewInstr(ir.WaitMemAddr)
	waitA.Dst, waitA.Imm = 3, sync

	// Epoch 0: signal (addr), then later store to the SAME addr.
	e0 := append([]trace.Event{
		evFor(sigIn, addr, 1),
	}, append(filler(p, 60), mkEvent(p, ir.Store, addr, 2, ir.None, 0, 1))...)
	// Epoch 1: consumes the signal early.
	e1 := append([]trace.Event{evFor(waitA, addr, 0)}, filler(p, 80)...)

	r := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU()})
	if r.ViolByKind["sigbuf"] == 0 {
		t.Errorf("signal-address-buffer hit not detected: %v", r.ViolByKind)
	}
}

func TestUFFLoadImmune(t *testing.T) {
	p := newSynthProg()
	const addr = 0x20000
	// Epoch 0 stores addr late; epoch 1's load carries FlagUFF (the
	// functional interpreter validated the forwarded value): no violation.
	ld := p.NewInstr(ir.LoadSync)
	ld.Dst, ld.A, ld.Imm = 2, 0, 0
	e0 := append(filler(p, 80), mkEvent(p, ir.Store, addr, 1, ir.None, 0, 1))
	e1 := append([]trace.Event{evFor(ld, addr, 1, trace.FlagUFF)}, filler(p, 40)...)
	r := Simulate(Input{Trace: synthTrace(p, e0, e1), Policy: PolicyU()})
	if r.Violations != 0 {
		t.Errorf("UFF load violated: %d (%v)", r.Violations, r.ViolByKind)
	}
}

func TestOldestEpochCannotBeViolated(t *testing.T) {
	p := newSynthProg()
	// Only one epoch: it is always oldest; no speculation state can harm
	// it and it must commit exactly once.
	e0 := filler(p, 50)
	r := Simulate(Input{Trace: synthTrace(p, e0), Policy: PolicyU()})
	if r.Violations != 0 || r.Restarts != 0 {
		t.Errorf("single epoch violated: %v", r.ViolByKind)
	}
	if r.Regions[0].Epochs != 1 {
		t.Errorf("committed epochs = %d", r.Regions[0].Epochs)
	}
}

func TestManyEpochsCommitInOrder(t *testing.T) {
	p := newSynthProg()
	var epochs [][]trace.Event
	for i := 0; i < 37; i++ {
		epochs = append(epochs, filler(p, 20+i%13))
	}
	r := Simulate(Input{Trace: synthTrace(p, epochs...), Policy: PolicyU()})
	if r.Regions[0].Epochs != 37 {
		t.Errorf("committed %d epochs, want 37", r.Regions[0].Epochs)
	}
	slots := r.RegionSlots()
	want := r.RegionCycles() * int64(r.Machine.CPUs) * int64(r.Machine.IssueWidth)
	if slots.Total() != want {
		t.Errorf("slot conservation broken: %d != %d", slots.Total(), want)
	}
}

func TestEmptyTrace(t *testing.T) {
	r := Simulate(Input{Trace: &trace.ProgramTrace{}, Policy: PolicyU()})
	if r.TotalCycles != 0 {
		t.Errorf("empty trace took %d cycles", r.TotalCycles)
	}
}

func TestSeqSegmentsBetweenRegions(t *testing.T) {
	p := newSynthProg()
	tr := &trace.ProgramTrace{Segments: []trace.Segment{
		{Seq: encode(filler(p, 40))},
		{Region: &trace.RegionInstance{RegionID: 0, Epochs: []*trace.Epoch{
			{Index: 0, Events: encode(filler(p, 30))},
			{Index: 1, Events: encode(filler(p, 30))},
		}}},
		{Seq: encode(filler(p, 40))},
	}}
	tr.Code = p.code()
	r := Simulate(Input{Trace: tr, Policy: PolicyU()})
	if r.SeqCycles == 0 {
		t.Error("sequential cycles not accounted")
	}
	if r.RegionCycles() == 0 {
		t.Error("region cycles not accounted")
	}
	if r.TotalCycles < r.SeqCycles+r.RegionCycles() {
		t.Errorf("total %d < seq %d + region %d", r.TotalCycles, r.SeqCycles, r.RegionCycles())
	}
}

// TestSequentialRunTracksOnlyStoreWords: a sequential segment's run
// after a region never commits and is never a victim, so it records
// only the store words its private-hit test reads. A load the violation
// table knows still touches the table, whose LRU tick picks H and B
// victims.
func TestSequentialRunTracksOnlyStoreWords(t *testing.T) {
	p := newSynthProg()
	ld := mkEvent(p, ir.Load, 0x20000, 5, 2, 0)
	st := mkEvent(p, ir.Store, 0x30000, 1, ir.None, 0, 1)
	m := newMachine(Input{Trace: &trace.ProgramTrace{Code: p.code()}, Policy: PolicyP()})
	defer m.finish()
	m.tracking = true
	m.table.record(int(m.code.inst[ld.SI].origin))
	run := m.newRun(&trace.Epoch{}, 0, 0)
	run.seq = true
	tick := m.table.tick
	m.trackLoad(run, &trace.Operand{Addr: ld.Addr, Val: ld.Val}, &m.code.inst[ld.SI])
	m.trackStore(run, st.Addr)
	if run.loadLines.len() != 0 || run.storeLines.len() != 0 || len(run.trainings) != 0 || run.mispredicted {
		t.Errorf("sequential run recorded %d load lines, %d store lines, %d trainings, mispredicted %v; want none",
			run.loadLines.len(), run.storeLines.len(), len(run.trainings), run.mispredicted)
	}
	if !run.storeWords.has(st.Addr) {
		t.Error("sequential run dropped its store word")
	}
	if m.table.tick == tick {
		t.Error("the predicted load did not touch the violation table")
	}
	putRun(run)
}

// TestWholeWorkloadScalarWaitAccounting checks that scalar sync stalls
// appear in the sync segment on a real compiled benchmark.
func TestWholeWorkloadScalarWaitAccounting(t *testing.T) {
	// A loop whose only carried value is a non-induction scalar produced
	// at the end of the body (cannot be forwarded early).
	src := `
var out [1024]int;
func main() {
	var i int;
	var s int;
	parallel for i = 0; i < 200; i = i + 1 {
		var j int = 0;
		var acc int = 0;
		while j < 6 {
			acc = acc + (i + j) * 3;
			j = j + 1;
		}
		s = s ^ acc;
		out[i % 1024] = s;
	}
	print(s);
}
`
	b, err := core.Compile(core.Config{Source: src, RefInput: []int64{1}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(b.Base, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	r := Simulate(Input{Trace: tr, Policy: PolicyU()})
	if r.ScalarWaitCycles == 0 {
		t.Error("no scalar wait stalls recorded for a serial scalar chain")
	}
}

func TestStridePredictorUnit(t *testing.T) {
	p := newPredictor()
	p.strideMode = true
	// Arithmetic sequence: last-value never confident, stride becomes so.
	vals := []int64{10, 14, 18, 22, 26}
	for i, v := range vals {
		p.update(7, v, i)
	}
	v, ok := p.predict(7, len(vals))
	if !ok || v != 30 {
		t.Errorf("stride predict = %d,%v, want 30,true", v, ok)
	}
	// Distance extrapolation: predicting 3 epochs ahead of the last
	// training adds 3 strides.
	v, ok = p.predict(7, len(vals)+2)
	if !ok || v != 38 {
		t.Errorf("extrapolated predict = %d,%v, want 38,true", v, ok)
	}
	// Without stride mode the same stream is unpredictable.
	q := newPredictor()
	for i, v := range vals {
		q.update(7, v, i)
	}
	if _, ok := q.predict(7, len(vals)); ok {
		t.Error("last-value predictor predicted an arithmetic stream")
	}
}

func TestStridePredictionHelpsAllocator(t *testing.T) {
	// gap's forwarded value is a bump pointer with (mostly) regular
	// strides when the allocation size is fixed: stride prediction can
	// capture what last-value cannot — the extension experiment.
	src := `
var arena_top int;
var pool [2048]int;
var out [1024]int;
func main() {
	var i int;
	for i = 0; i < 2048; i = i + 1 { pool[i] = i * 11; }
	parallel for i = 0; i < 500; i = i + 1 {
		var p int = arena_top;
		arena_top = p + 3;
		var j int = 0;
		var acc int = 0;
		while j < 10 {
			acc = acc + pool[(p + j * 31) % 2048];
			j = j + 1;
		}
		out[i % 1024] = acc + p % 101;
	}
	print(arena_top);
}
`
	b, err := core.Compile(core.Config{Source: src, RefInput: []int64{1}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(b.Base, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	last := Simulate(Input{Trace: tr, Policy: Policy{Name: "P", Predict: true}})
	stride := Simulate(Input{Trace: tr, Policy: Policy{Name: "SP", StridePredict: true}})
	if stride.Violations >= last.Violations {
		t.Errorf("stride prediction (%d violations) should beat last-value (%d) on a bump pointer",
			stride.Violations, last.Violations)
	}
	if stride.RegionCycles() >= last.RegionCycles() {
		t.Errorf("stride prediction (%d cycles) should beat last-value (%d)",
			stride.RegionCycles(), last.RegionCycles())
	}
}

func TestFilterSyncBypassesUselessChannels(t *testing.T) {
	// Alternating heads: even epochs touch h0, odd epochs h1, with the
	// store late and the load early. Each head's self-dependence is
	// distance 2, so the compiler synchronizes both groups — but the
	// immediate predecessor never produces the value the consumer needs:
	// every wait completes via a (late) NULL, serializing for nothing.
	// The paper's §4.2 suggestion (iii) lets the hardware learn that the
	// channels never forward useful values and stop stalling.
	src := `
var h0 int;
var pad0 [3]int;
var h1 int;
var work [2048]int;
var out [1024]int;
func main() {
	var i int;
	for i = 0; i < 2048; i = i + 1 { work[i] = i * 13 % 997; }
	parallel for i = 0; i < 400; i = i + 1 {
		var v int = 0;
		if i % 2 == 0 {
			v = h0;
		} else {
			v = h1;
		}
		var j int = 0;
		var acc int = v % 17;
		while j < 10 {
			acc = acc + work[(i * 37 + j * 59) % 2048];
			j = j + 1;
		}
		if i % 2 == 0 {
			h0 = acc % 1009;
		} else {
			h1 = acc % 1013;
		}
		out[i % 1024] = acc;
	}
	print(h0 + h1);
}
`
	b, err := core.Compile(core.Config{Source: src, RefInput: []int64{1}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(memSyncIDs(b)) == 0 {
		t.Skip("nothing synchronized; workload needs recalibration")
	}
	tr, err := b.Trace(b.Ref, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	plain := Simulate(Input{Trace: tr, Policy: PolicyC("C")})
	filtered := Simulate(Input{Trace: tr, Policy: Policy{Name: "CF", FilterSync: true}})
	if plain.MemWaitCycles == 0 {
		t.Skip("no wait cost to filter; workload needs recalibration")
	}
	if filtered.MemWaitCycles*2 > plain.MemWaitCycles {
		t.Errorf("filtering should cut wait stalls: %d vs %d",
			filtered.MemWaitCycles, plain.MemWaitCycles)
	}
	if filtered.RegionCycles() >= plain.RegionCycles() {
		t.Errorf("filtered C (%d cycles) should beat plain C (%d) when sync is useless",
			filtered.RegionCycles(), plain.RegionCycles())
	}
}

// memSyncIDs lists the sync channels of the ref binary.
func memSyncIDs(b *core.Build) []int {
	var ids []int
	for _, info := range b.MemInfoRef {
		ids = append(ids, info.SyncIDs...)
	}
	return ids
}

func TestFilterSyncHarmlessWhenSyncUseful(t *testing.T) {
	// On a hot forwarded dependence (quickstart-style), every wait is
	// useful: the filter must never engage and timing must be unchanged.
	src := `
var total int;
var work [2048]int;
var out [1024]int;
func main() {
	var i int;
	for i = 0; i < 2048; i = i + 1 { work[i] = i * 13 % 997; }
	parallel for i = 0; i < 300; i = i + 1 {
		var j int = 0;
		var acc int = 0;
		while j < 8 {
			acc = acc + work[(i * 29 + j * 61) % 2048];
			j = j + 1;
		}
		total = total + acc % 100;
		out[i % 1024] = acc;
	}
	print(total);
}
`
	b, err := core.Compile(core.Config{Source: src, RefInput: []int64{1}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := b.Trace(b.Ref, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	plain := Simulate(Input{Trace: tr, Policy: PolicyC("C")})
	filtered := Simulate(Input{Trace: tr, Policy: Policy{Name: "CF", FilterSync: true}})
	if filtered.RegionCycles() != plain.RegionCycles() {
		t.Errorf("filter changed useful sync: %d vs %d cycles",
			filtered.RegionCycles(), plain.RegionCycles())
	}
	if filtered.Violations != plain.Violations {
		t.Errorf("filter changed violations: %d vs %d", filtered.Violations, plain.Violations)
	}
}

func TestTimelineCollection(t *testing.T) {
	p := newSynthProg()
	const addr = 0x20000
	var epochs [][]trace.Event
	for i := 0; i < 12; i++ {
		var evs []trace.Event
		evs = append(evs, evFor(loadInstr(p), addr, int64(i)))
		evs = append(evs, filler(p, 25)...)
		evs = append(evs, evFor(storeInstr(p), addr, int64(i+1)))
		epochs = append(epochs, evs)
	}
	r := Simulate(Input{Trace: synthTrace(p, epochs...), Policy: PolicyU(), CollectTimeline: true})
	if len(r.Spans) != 12 {
		t.Fatalf("spans = %d, want 12", len(r.Spans))
	}
	squashed := 0
	for _, s := range r.Spans {
		if s.Commit < s.Start {
			t.Errorf("epoch %d: commit %d before start %d", s.Epoch, s.Commit, s.Start)
		}
		squashed += len(s.Squashes)
		for _, sq := range s.Squashes {
			if sq < s.Start || sq > s.Commit {
				t.Errorf("epoch %d: squash %d outside lifetime [%d,%d]", s.Epoch, sq, s.Start, s.Commit)
			}
		}
	}
	if int64(squashed) != r.Restarts {
		t.Errorf("span squashes %d != restarts %d", squashed, r.Restarts)
	}
	// Commits are in epoch order.
	for i := 1; i < len(r.Spans); i++ {
		if r.Spans[i].Commit < r.Spans[i-1].Commit {
			t.Error("commit order violated")
		}
	}

	txt := Timeline(r.Spans, 0, 10, 60)
	if !strings.Contains(txt, "e    0 cpu0") {
		t.Errorf("timeline rendering missing rows:\n%s", txt)
	}
	if !strings.Contains(txt, "■") {
		t.Error("timeline missing commit markers")
	}
	if squashed > 0 && !strings.Contains(txt, "x") {
		t.Error("timeline missing squash markers")
	}
}

func loadInstr(p *synthProg) *ir.Instr {
	in := p.NewInstr(ir.Load)
	in.Dst, in.A = 2, 0
	return in
}

func storeInstr(p *synthProg) *ir.Instr {
	in := p.NewInstr(ir.Store)
	in.A, in.B = 0, 1
	return in
}

func TestTimelineEmpty(t *testing.T) {
	if got := Timeline(nil, 0, 10, 60); !strings.Contains(got, "no epochs") {
		t.Errorf("empty timeline = %q", got)
	}
}
