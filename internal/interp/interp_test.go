package interp

import (
	"testing"

	"tlssync/internal/cfg"
	"tlssync/internal/ir"
	"tlssync/internal/lang"
	"tlssync/internal/lower"
	"tlssync/internal/trace"
)

// compile parses, checks and lowers src.
func compile(t testing.TB, src string) *ir.Program {
	t.Helper()
	c, err := lang.Check(lang.MustParse(src))
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := lower.Lower(c)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// run interprets with no regions and returns printed output.
func run(t testing.TB, src string, opts Options) []int64 {
	t.Helper()
	p := compile(t, src)
	tr, err := Run(p, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr.Output
}

func wantOutput(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestArithmetic(t *testing.T) {
	out := run(t, `
func main() {
	print(2 + 3 * 4);
	print((2 + 3) * 4);
	print(10 / 3);
	print(10 % 3);
	print(1 << 5);
	print(-7);
	print(!0);
	print(!5);
	print(6 & 3);
	print(6 | 3);
	print(6 ^ 3);
	print(100 >> 2);
}`, Options{})
	wantOutput(t, out, []int64{14, 20, 3, 1, 32, -7, 1, 0, 2, 7, 5, 25})
}

func TestComparisonsAndLogic(t *testing.T) {
	out := run(t, `
func main() {
	print(1 < 2);
	print(2 <= 1);
	print(3 == 3);
	print(3 != 3);
	print(1 && 2);
	print(1 && 0);
	print(0 || 0);
	print(0 || 7);
}`, Options{})
	wantOutput(t, out, []int64{1, 0, 1, 0, 1, 0, 0, 1})
}

func TestShortCircuitSideEffects(t *testing.T) {
	// g() must not run when the left side already decides.
	out := run(t, `
var calls int;
func g() int { calls = calls + 1; return 1; }
func main() {
	var x int;
	x = 0 && g();
	x = 1 || g();
	print(calls);
	x = 1 && g();
	x = 0 || g();
	print(calls);
	print(x);
}`, Options{})
	wantOutput(t, out, []int64{0, 2, 1})
}

func TestControlFlow(t *testing.T) {
	out := run(t, `
func main() {
	var i int;
	var sum int;
	for i = 0; i < 10; i = i + 1 {
		if i % 2 == 0 {
			sum = sum + i;
		}
	}
	print(sum);
	var j int = 0;
	while j < 5 {
		j = j + 1;
		if j == 3 {
			continue;
		}
		if j == 5 {
			break;
		}
		sum = sum + 100;
	}
	print(sum);
	print(j);
}`, Options{})
	wantOutput(t, out, []int64{20, 320, 5})
}

func TestFunctionsAndRecursion(t *testing.T) {
	out := run(t, `
func fib(n int) int {
	if n < 2 {
		return n;
	}
	return fib(n - 1) + fib(n - 2);
}
func main() {
	print(fib(10));
}`, Options{})
	wantOutput(t, out, []int64{55})
}

func TestPointersAndHeap(t *testing.T) {
	out := run(t, `
type Node struct {
	next *Node;
	val  int;
}
var head *Node;
func push(v int) {
	var n *Node = new(Node);
	n->val = v;
	n->next = head;
	head = n;
}
func main() {
	var i int;
	for i = 1; i <= 4; i = i + 1 {
		push(i * i);
	}
	var p *Node = head;
	while p != nil {
		print(p->val);
		p = p->next;
	}
}`, Options{})
	wantOutput(t, out, []int64{16, 9, 4, 1})
}

func TestArraysAndStructs(t *testing.T) {
	out := run(t, `
type Pt struct { x int; y int; }
var grid [8]Pt;
func main() {
	var i int;
	for i = 0; i < 8; i = i + 1 {
		grid[i].x = i;
		grid[i].y = i * 10;
	}
	print(grid[3].x + grid[5].y);
	var p *Pt = &grid[2];
	p->y = 999;
	print(grid[2].y);
}`, Options{})
	wantOutput(t, out, []int64{53, 999})
}

func TestAddressOfLocal(t *testing.T) {
	out := run(t, `
func bump(p *int) { *p = *p + 1; }
func main() {
	var x int = 41;
	bump(&x);
	print(x);
}`, Options{})
	wantOutput(t, out, []int64{42})
}

func TestLocalZeroInit(t *testing.T) {
	// Frame reuse across calls must not leak values: locals are zeroed.
	out := run(t, `
type Buf struct { a int; b int; }
func writeJunk() {
	var b Buf;
	b.a = 12345;
	b.b = 67890;
}
func readFresh() int {
	var b Buf;
	return b.a + b.b;
}
func main() {
	writeJunk();
	print(readFresh());
}`, Options{})
	wantOutput(t, out, []int64{0})
}

func TestPointerIndexing(t *testing.T) {
	out := run(t, `
var arr [10]int;
func main() {
	var p *int = &arr[0];
	var i int;
	for i = 0; i < 10; i = i + 1 {
		p[i] = i * 2;
	}
	print(arr[7]);
	print(p[3]);
}`, Options{})
	wantOutput(t, out, []int64{14, 6})
}

func TestInputBuiltin(t *testing.T) {
	out := run(t, `
func main() {
	print(input(0));
	print(input(1));
	print(input(5));
}`, Options{Input: []int64{10, 20, 30}})
	wantOutput(t, out, []int64{10, 20, 30}) // index 5 wraps to 2
}

func TestRndDeterminism(t *testing.T) {
	src := `
func main() {
	var i int;
	var sum int;
	for i = 0; i < 100; i = i + 1 {
		sum = sum + rnd(10);
	}
	print(sum);
}`
	a := run(t, src, Options{Seed: 7})
	b := run(t, src, Options{Seed: 7})
	c := run(t, src, Options{Seed: 8})
	if a[0] != b[0] {
		t.Errorf("same seed gave %d vs %d", a[0], b[0])
	}
	if a[0] == c[0] {
		t.Errorf("different seeds both gave %d", a[0])
	}
	for _, v := range a {
		if v < 0 || v >= 1000 {
			t.Errorf("rnd sum out of range: %d", v)
		}
	}
}

func TestNilDereferenceFaults(t *testing.T) {
	p := compile(t, `
func main() {
	var p *int;
	print(*p);
}`)
	if _, err := Run(p, Options{}); err == nil {
		t.Fatal("expected nil-dereference error")
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	p := compile(t, `func main() { while 1 { } }`)
	if _, err := Run(p, Options{MaxSteps: 1000}); err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestGlobalInit(t *testing.T) {
	out := run(t, `
var g int = 42;
var h *int = nil;
func main() {
	print(g);
	if h == nil { print(1); } else { print(0); }
}`, Options{})
	wantOutput(t, out, []int64{42, 1})
}

// regionsOf builds Region values for all parallel loops in the program.
func regionsOf(p *ir.Program) []*Region {
	var regs []*Region
	id := 0
	for _, f := range p.Funcs {
		for _, l := range cfg.ParallelLoops(f) {
			regs = append(regs, &Region{ID: id, Func: f, Loop: l})
			id++
		}
	}
	return regs
}

func TestEpochTrace(t *testing.T) {
	p := compile(t, `
var acc int;
func main() {
	var i int;
	parallel for i = 0; i < 10; i = i + 1 {
		acc = acc + i;
	}
	print(acc);
}`)
	regs := regionsOf(p)
	if len(regs) != 1 {
		t.Fatalf("found %d parallel loops, want 1", len(regs))
	}
	tr, err := Run(p, Options{Regions: regs})
	if err != nil {
		t.Fatal(err)
	}
	wantOutput(t, tr.Output, []int64{45})
	if got := tr.EpochCount(); got != 10 {
		// 10 body iterations; the final header evaluation that exits is
		// folded into epoch 9.
		t.Errorf("epochs = %d, want 10", got)
	}
	var regionInstances int
	for _, s := range tr.Segments {
		if s.Region != nil {
			regionInstances++
		}
	}
	if regionInstances != 1 {
		t.Errorf("region instances = %d, want 1", regionInstances)
	}
}

func TestEpochTraceMemoryEvents(t *testing.T) {
	p := compile(t, `
var g int;
func main() {
	var i int;
	parallel for i = 0; i < 4; i = i + 1 {
		g = g + 1;
	}
}`)
	tr, err := Run(p, Options{Regions: regionsOf(p)})
	if err != nil {
		t.Fatal(err)
	}
	// Every full epoch must contain exactly one load and one store of g.
	gAddr := p.GlobalMap["g"].Addr
	for _, s := range tr.Segments {
		if s.Region == nil {
			continue
		}
		for _, e := range s.Region.Epochs[:4] {
			loads, stores := 0, 0
			for _, ev := range decoded(e.Events) {
				switch tr.Code[ev.SI].Op {
				case ir.Load:
					if ev.Addr == gAddr {
						loads++
					}
				case ir.Store:
					if ev.Addr == gAddr {
						stores++
					}
				}
			}
			if loads != 1 || stores != 1 {
				t.Errorf("epoch %d: loads=%d stores=%d of g, want 1/1", e.Index, loads, stores)
			}
		}
	}
}

func TestRegionInstanceBoundaries(t *testing.T) {
	// A parallel loop entered twice produces two region instances.
	p := compile(t, `
var g int;
func body() {
	var i int;
	parallel for i = 0; i < 3; i = i + 1 {
		g = g + 1;
	}
}
func main() {
	body();
	body();
	print(g);
}`)
	tr, err := Run(p, Options{Regions: regionsOf(p)})
	if err != nil {
		t.Fatal(err)
	}
	wantOutput(t, tr.Output, []int64{6})
	instances := 0
	for _, s := range tr.Segments {
		if s.Region != nil {
			instances++
		}
	}
	if instances != 2 {
		t.Errorf("region instances = %d, want 2", instances)
	}
}

func TestBreakExitsRegion(t *testing.T) {
	p := compile(t, `
var g int;
func main() {
	var i int;
	parallel for i = 0; i < 100; i = i + 1 {
		g = g + 1;
		if i == 4 {
			break;
		}
	}
	print(g);
}`)
	tr, err := Run(p, Options{Regions: regionsOf(p)})
	if err != nil {
		t.Fatal(err)
	}
	wantOutput(t, tr.Output, []int64{5})
	if tr.EpochCount() != 5 {
		t.Errorf("epochs = %d, want 5", tr.EpochCount())
	}
}

func TestCallRetBalancedInEpochs(t *testing.T) {
	p := compile(t, `
var g int;
func f(x int) int { return x * 2; }
func main() {
	var i int;
	parallel for i = 0; i < 5; i = i + 1 {
		g = g + f(i);
	}
	print(g);
}`)
	tr, err := Run(p, Options{Regions: regionsOf(p)})
	if err != nil {
		t.Fatal(err)
	}
	wantOutput(t, tr.Output, []int64{20})
	for _, s := range tr.Segments {
		if s.Region == nil {
			continue
		}
		for _, e := range s.Region.Epochs {
			depth := 0
			for _, ev := range decoded(e.Events) {
				switch tr.Code[ev.SI].Op {
				case ir.Call:
					depth++
				case ir.Ret:
					depth--
				}
			}
			if depth != 0 {
				t.Errorf("epoch %d: unbalanced call depth %d", e.Index, depth)
			}
		}
	}
}

func TestStackAddressesExcluded(t *testing.T) {
	// Address-taken locals land in the stack segment, which dependence
	// tracking ignores.
	p := compile(t, `
func bump(p *int) { *p = *p + 1; }
func main() {
	var i int;
	parallel for i = 0; i < 3; i = i + 1 {
		var x int = i;
		bump(&x);
		print(x);
	}
}`)
	tr, err := Run(p, Options{Regions: regionsOf(p)})
	if err != nil {
		t.Fatal(err)
	}
	wantOutput(t, tr.Output, []int64{1, 2, 3})
	sawStack := false
	for _, s := range tr.Segments {
		if s.Region == nil {
			continue
		}
		for _, e := range s.Region.Epochs {
			for _, ev := range decoded(e.Events) {
				if tr.Code[ev.SI].Op.IsMemAccess() && ir.IsStackAddr(ev.Addr) {
					sawStack = true
				}
			}
		}
	}
	if !sawStack {
		t.Error("expected some stack-segment accesses in the trace")
	}
}

func TestTraceEventCountsMatchSteps(t *testing.T) {
	p := compile(t, `
func main() {
	var i int;
	var s int;
	for i = 0; i < 50; i = i + 1 {
		s = s + i;
	}
	print(s);
}`)
	tr, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events() == 0 {
		t.Fatal("empty trace")
	}
	// All events are sequential (no regions).
	if tr.RegionEvents() != 0 || tr.EpochCount() != 0 {
		t.Error("unexpected region events in sequential run")
	}
}

var sinkTrace *trace.ProgramTrace

func BenchmarkInterpFib(b *testing.B) {
	p := compile(b, `
func fib(n int) int {
	if n < 2 { return n; }
	return fib(n-1) + fib(n-2);
}
func main() { print(fib(15)); }`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Run(p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		sinkTrace = tr
	}
}
