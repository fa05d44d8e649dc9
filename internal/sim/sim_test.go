package sim

import (
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/memsync"
)

// build compiles src through the full pipeline.
func build(t testing.TB, src string) *core.Build {
	t.Helper()
	b, err := core.Compile(core.Config{Source: src, RefInput: []int64{1, 2, 3}, Seed: 5})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return b
}

func simU(t testing.TB, b *core.Build) *Result {
	t.Helper()
	tr, err := b.Trace(b.Base, b.Config.RefInput)
	if err != nil {
		t.Fatal(err)
	}
	return Simulate(Input{Trace: tr, Policy: PolicyU()})
}

func simPolicy(t testing.TB, b *core.Build, binary string, pol Policy) *Result {
	t.Helper()
	p := b.Base
	switch binary {
	case "ref":
		p = b.Ref
	case "train":
		p = b.Train
	}
	tr, err := b.Trace(p, b.Config.RefInput)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name == "B" || pol.CompilerMarks != nil {
		pol.CompilerMarks = memsync.SyncedLoadOrigins(b.Ref)
	}
	return Simulate(Input{Trace: tr, Policy: pol})
}

// Independent iterations: TLS should get near-linear speedup, no
// violations.
const independentSrc = `
var arr [4096]int;
var sink int;
func main() {
	var i int;
	parallel for i = 0; i < 1000; i = i + 1 {
		var v int = arr[(i * 173) % 4096];
		arr[(i * 173) % 4096] = v + i * i + (i << 3) + (i % 7);
	}
	print(arr[173]);
}
`

// Every epoch reads and writes g: serial dependence chain, maximal
// violations under plain speculation.
const dependentSrc = `
var g int;
var pad [512]int;
func main() {
	var i int;
	parallel for i = 0; i < 600; i = i + 1 {
		var a int = (i * 17) % 97;
		var b int = a * a + i;
		pad[(i * 31) % 512] = b;
		g = g + b % 13 + 1;
	}
	print(g);
}
`

func TestIndependentLoopFewViolations(t *testing.T) {
	b := build(t, independentSrc)
	r := simU(t, b)
	if r.Violations > 20 {
		t.Errorf("independent loop had %d violations", r.Violations)
	}
	slots := r.RegionSlots()
	if slots.Fail*5 > slots.Total() {
		t.Errorf("independent loop wasted %d/%d slots on fail", slots.Fail, slots.Total())
	}
	if r.RegionCycles() == 0 || slots.Busy == 0 {
		t.Fatal("no region activity simulated")
	}
}

func TestDependentLoopViolatesUnderU(t *testing.T) {
	b := build(t, dependentSrc)
	r := simU(t, b)
	if r.Violations < 50 {
		t.Errorf("dependent loop had only %d violations under U", r.Violations)
	}
	slots := r.RegionSlots()
	if slots.Fail == 0 {
		t.Error("no fail slots despite violations")
	}
}

func TestSequentialBaselineSpeedup(t *testing.T) {
	// Parallel independent loop must beat the 1-CPU sequential time.
	b := build(t, independentSrc)
	tr, err := b.Trace(b.Base, b.Config.RefInput)
	if err != nil {
		t.Fatal(err)
	}
	par := Simulate(Input{Trace: tr, Policy: PolicyU()})

	seqTr, err := b.Trace(b.Plain, b.Config.RefInput)
	if err != nil {
		t.Fatal(err)
	}
	seq := SimulateSequentialRegions(Input{Trace: seqTr})
	if seq.RegionCycles() == 0 {
		t.Fatal("no sequential region cycles")
	}
	speedup := float64(seq.RegionCycles()) / float64(par.RegionCycles())
	if speedup < 1.5 {
		t.Errorf("independent loop speedup = %.2f, want > 1.5", speedup)
	}
	if speedup > float64(par.Machine.CPUs)+0.5 {
		t.Errorf("speedup %.2f exceeds CPU count — accounting bug", speedup)
	}
}

func TestCompilerSyncBeatsUOnDependentLoop(t *testing.T) {
	b := build(t, dependentSrc)
	u := simU(t, b)
	c := simPolicy(t, b, "ref", PolicyC("C"))
	if c.Violations >= u.Violations {
		t.Errorf("C has %d violations, U has %d — sync should cut them", c.Violations, u.Violations)
	}
	cs, us := c.RegionSlots(), u.RegionSlots()
	if cs.Fail >= us.Fail {
		t.Errorf("C fail=%d >= U fail=%d", cs.Fail, us.Fail)
	}
	if c.RegionCycles() >= u.RegionCycles() {
		t.Errorf("C cycles=%d >= U cycles=%d on a serial-dependence loop",
			c.RegionCycles(), u.RegionCycles())
	}
	// Synchronization converts fail into sync stalls.
	if cs.Sync == 0 {
		t.Error("C shows no sync slots")
	}
}

func TestHWSyncReducesViolations(t *testing.T) {
	b := build(t, dependentSrc)
	u := simU(t, b)
	h := simPolicy(t, b, "base", PolicyH())
	if h.Violations >= u.Violations {
		t.Errorf("H violations=%d >= U violations=%d", h.Violations, u.Violations)
	}
	if h.HWSyncCycles == 0 {
		t.Error("H shows no hardware sync stalls")
	}
}

func TestPerfectMemoryEliminatesFailAndMemStalls(t *testing.T) {
	b := build(t, dependentSrc)
	o := simPolicy(t, b, "base", PolicyO())
	if o.Violations != 0 {
		t.Errorf("O had %d violations", o.Violations)
	}
	slots := o.RegionSlots()
	if slots.Fail != 0 {
		t.Errorf("O has fail slots: %d", slots.Fail)
	}
	if o.MemWaitCycles != 0 {
		t.Errorf("O has mem wait stalls: %d", o.MemWaitCycles)
	}
	// O is the upper bound: at least as fast as U.
	u := simU(t, b)
	if o.RegionCycles() > u.RegionCycles() {
		t.Errorf("O cycles=%d > U cycles=%d", o.RegionCycles(), u.RegionCycles())
	}
}

func TestOracleLoadSubset(t *testing.T) {
	b := build(t, dependentSrc)
	// Oracle on the hot loads (threshold 25% of epochs).
	hot := b.RefProfile.Regions[0].LoadsAboveThreshold(0.25)
	if len(hot) == 0 {
		t.Fatal("no hot loads found")
	}
	u := simU(t, b)
	tr, err := b.Trace(b.Base, b.Config.RefInput)
	if err != nil {
		t.Fatal(err)
	}
	or := Simulate(Input{Trace: tr, Policy: Policy{Name: "O25", OracleLoads: hot}})
	if or.Violations >= u.Violations {
		t.Errorf("oracle-25%% violations=%d >= U violations=%d", or.Violations, u.Violations)
	}
}

func TestEAndLBrackets(t *testing.T) {
	// E (free forwarding) should be no slower than C; L (stall until
	// oldest) should be no faster than E.
	b := build(t, dependentSrc)
	c := simPolicy(t, b, "ref", PolicyC("C"))
	e := simPolicy(t, b, "ref", PolicyE())
	l := simPolicy(t, b, "ref", PolicyL())
	if e.RegionCycles() > c.RegionCycles()*11/10 {
		t.Errorf("E cycles=%d much slower than C cycles=%d", e.RegionCycles(), c.RegionCycles())
	}
	if l.RegionCycles() < e.RegionCycles() {
		t.Errorf("L cycles=%d faster than E cycles=%d", l.RegionCycles(), e.RegionCycles())
	}
	if e.MemWaitCycles != 0 {
		t.Errorf("E has mem wait stalls: %d", e.MemWaitCycles)
	}
}

func TestPredictionMostlyIneffective(t *testing.T) {
	// The forwarded values here change every epoch (unpredictable): P
	// should be roughly like U, certainly not a large win.
	b := build(t, dependentSrc)
	u := simU(t, b)
	p := simPolicy(t, b, "base", PolicyP())
	if p.RegionCycles()*2 < u.RegionCycles() {
		t.Errorf("P cycles=%d suspiciously better than U=%d for unpredictable values",
			p.RegionCycles(), u.RegionCycles())
	}
}

func TestPredictablePredictionHelps(t *testing.T) {
	// A loop whose ONLY inter-epoch dependence carries a CONSTANT value:
	// last-value prediction should eliminate most violations once
	// confidence builds.
	src := `
var flag int;
var pad [2048]int;
var out [1024]int;
func main() {
	var i int;
	flag = 7;
	parallel for i = 0; i < 600; i = i + 1 {
		var w int = (i * 29) % 2039;
		pad[w] = pad[w] + i;
		out[i % 1024] = pad[w] + flag; // reads flag every epoch
		flag = 7;                      // rewrites the same value
	}
	var s int;
	for i = 0; i < 1024; i = i + 1 { s = s + out[i]; }
	print(s);
}
`
	b := build(t, src)
	u := simU(t, b)
	p := simPolicy(t, b, "base", PolicyP())
	if u.Violations == 0 {
		t.Skip("no violations to predict away")
	}
	if p.Violations >= u.Violations {
		t.Errorf("P violations=%d >= U violations=%d for constant value", p.Violations, u.Violations)
	}
}

func TestFalseSharingViolations(t *testing.T) {
	// Adjacent words in one cache line, no true dependence: violations
	// are pure false sharing. Hardware sync can fix; compiler (word-level
	// true deps) finds nothing to synchronize.
	src := `
var cells [4]int; // one 32-byte line
var out [1024]int;
func main() {
	var i int;
	parallel for i = 0; i < 600; i = i + 1 {
		var me int = i % 4;
		cells[me] = cells[me] + i;
		out[(i * 37) % 1024] = cells[me];
	}
	print(cells[0] + cells[1] + cells[2] + cells[3]);
}
`
	b := build(t, src)
	u := simU(t, b)
	if u.Violations < 30 {
		t.Errorf("false sharing produced only %d violations", u.Violations)
	}
	// The compiler found no frequent TRUE dependences (each epoch's slot
	// advances by 4, so self-dependences are at distance 4 — some may be
	// caught; the essential check is that hardware sync wins).
	h := simPolicy(t, b, "base", PolicyH())
	if h.Violations >= u.Violations {
		t.Errorf("H violations=%d >= U=%d on false sharing", h.Violations, u.Violations)
	}
}

func TestViolationBucketsClassify(t *testing.T) {
	b := build(t, dependentSrc)
	marks := memsync.SyncedLoadOrigins(b.Ref)
	if len(marks) == 0 {
		t.Fatal("no compiler marks")
	}
	tr, err := b.Trace(b.Base, b.Config.RefInput)
	if err != nil {
		t.Fatal(err)
	}
	pol := PolicyU()
	pol.CompilerMarks = marks
	r := Simulate(Input{Trace: tr, Policy: pol})
	var total int64
	for _, n := range r.ViolBuckets {
		total += n
	}
	if total == 0 {
		t.Fatal("no classified violations")
	}
	// The hot load is compiler-marked: compiler or both buckets dominate.
	covered := r.ViolBuckets[BucketCompiler] + r.ViolBuckets[BucketBoth]
	if covered*2 < total {
		t.Errorf("compiler-covered violations %d of %d — expected majority", covered, total)
	}
}

func TestSignalAddressBufferSmall(t *testing.T) {
	b := build(t, dependentSrc)
	c := simPolicy(t, b, "ref", PolicyC("C"))
	if c.SigBufPeak > 10 {
		t.Errorf("signal address buffer peaked at %d entries (paper: <= 10)", c.SigBufPeak)
	}
}

func TestDeterminism(t *testing.T) {
	b := build(t, dependentSrc)
	r1 := simU(t, b)
	r2 := simU(t, b)
	if r1.TotalCycles != r2.TotalCycles || r1.Violations != r2.Violations {
		t.Errorf("nondeterministic simulation: %v vs %v", r1, r2)
	}
}

func TestSlotConservation(t *testing.T) {
	// Region slots must equal CPUs x width x region cycles.
	b := build(t, dependentSrc)
	for _, pol := range []Policy{PolicyU(), PolicyO(), PolicyH(), PolicyP()} {
		r := simPolicy(t, b, "base", pol)
		slots := r.RegionSlots()
		want := r.RegionCycles() * int64(r.Machine.CPUs) * int64(r.Machine.IssueWidth)
		if slots.Total() != want {
			t.Errorf("%s: slots=%d, want %d (cycles=%d)", pol.Name, slots.Total(), want, r.RegionCycles())
		}
	}
	for _, pol := range []Policy{PolicyC("C"), PolicyE(), PolicyL(), PolicyB()} {
		r := simPolicy(t, b, "ref", pol)
		slots := r.RegionSlots()
		want := r.RegionCycles() * int64(r.Machine.CPUs) * int64(r.Machine.IssueWidth)
		if slots.Total() != want {
			t.Errorf("%s: slots=%d, want %d", pol.Name, slots.Total(), want)
		}
	}
}

func TestCommittedEpochsMatchTrace(t *testing.T) {
	b := build(t, dependentSrc)
	tr, err := b.Trace(b.Base, b.Config.RefInput)
	if err != nil {
		t.Fatal(err)
	}
	r := Simulate(Input{Trace: tr, Policy: PolicyU()})
	var epochs int64
	for _, rs := range r.Regions {
		epochs += rs.Epochs
	}
	if int(epochs) != tr.EpochCount() {
		t.Errorf("committed %d epochs, trace has %d", epochs, tr.EpochCount())
	}
}

func TestTable1Render(t *testing.T) {
	s := DefaultMachine().Table1()
	for _, want := range []string{"Issue Width", "32 KB", "1024 KB", "Crossbar"} {
		if !contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestCacheLRU(t *testing.T) {
	c := newCache(1, 2) // one set, two ways
	if c.access(0) {
		t.Error("cold access hit")
	}
	if !c.access(0) {
		t.Error("warm access missed")
	}
	c.access(1) // second way
	if !c.access(0) || !c.access(1) {
		t.Error("both ways should be resident")
	}
	c.access(2) // evicts LRU (line 0)
	if c.access(0) {
		t.Error("line 0 should have been evicted")
	}
}

func TestHWTableLRUAndReset(t *testing.T) {
	tb := newHWTable(2, 3, make([]int32, 4))
	tb.record(1)
	tb.record(2)
	if !tb.contains(1) || !tb.contains(2) {
		t.Fatal("entries missing")
	}
	tb.record(3) // evicts LRU: 1, touched before 2
	if tb.n != 2 {
		t.Errorf("table size %d, want 2", tb.n)
	}
	if tb.contains(1) || !tb.contains(2) || !tb.contains(3) {
		t.Error("record evicted the wrong entry: want 1 gone, 2 and 3 kept")
	}
	for i := 0; i < 3; i++ {
		tb.epochCommitted()
	}
	if tb.n != 0 || tb.contains(2) || tb.contains(3) {
		t.Error("table not reset after interval")
	}
}

func TestPredictor(t *testing.T) {
	p := newPredictor()
	if _, ok := p.predict(5, 0); ok {
		t.Error("cold predictor predicted")
	}
	// Confidence builds only after repeated identical values.
	p.update(5, 42, 0)
	if _, ok := p.predict(5, 1); ok {
		t.Error("predicted after a single observation")
	}
	for i := 0; i < predictConfidence; i++ {
		p.update(5, 42, i+1)
	}
	v, ok := p.predict(5, predictConfidence+1)
	if !ok || v != 42 {
		t.Errorf("predict = %d,%v, want 42,true", v, ok)
	}
	// A changed value destroys confidence.
	p.update(5, 43, predictConfidence+1)
	if _, ok := p.predict(5, predictConfidence+2); ok {
		t.Error("predicted immediately after value change")
	}
}
