package interp

import (
	"testing"

	"tlssync/internal/trace"
)

// poolSrc exercises both trace shapes: sequential segments and region
// epochs (the parallel loop becomes a region below).
const poolSrc = `
var arr [256]int;
func main() {
	var i int;
	var s int;
	parallel for i = 0; i < 40; i = i + 1 {
		arr[i % 256] = arr[i % 256] + input(i);
		s = s + arr[i % 256];
	}
	print(s);
}
`

// traceOf runs poolSrc with its parallel loop as a region and returns
// the trace.
func traceOf(t *testing.T, input []int64) *trace.ProgramTrace {
	t.Helper()
	p := compile(t, poolSrc)
	regs := regionsOf(p)
	if len(regs) == 0 {
		t.Fatal("no parallel loops found")
	}
	tr, err := Run(p, Options{Input: input, Seed: 7, Regions: regs})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// decoded returns a stream's events, decoded into a fresh slice.
func decoded(evs trace.Events) []trace.Event {
	out := make([]trace.Event, 0, evs.Len())
	for i, d := 0, 0; i < evs.Len(); i++ {
		var ev trace.Event
		ev, d = evs.Decode(i, d)
		out = append(out, ev)
	}
	return out
}

// snapshot deep-copies a trace's events so later mutation of the
// originals is detectable.
func snapshot(tr *trace.ProgramTrace) [][]trace.Event {
	var out [][]trace.Event
	for _, s := range tr.Segments {
		if s.Seq.Len() > 0 {
			out = append(out, decoded(s.Seq))
		}
		if s.Region != nil {
			for _, e := range s.Region.Epochs {
				out = append(out, decoded(e.Events))
			}
		}
	}
	return out
}

// sameEvents compares snapshots of the same run exactly, pointers
// included — used to detect in-place corruption of a live trace.
func sameEvents(a, b [][]trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// equivEvents compares snapshots of two independent runs: each run
// compiles its own ir.Program, but instruction numbering is
// deterministic, so identical dynamic streams carry identical static
// indices and payloads.
func equivEvents(a, b [][]trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.SI != y.SI || x.Addr != y.Addr || x.Val != y.Val || x.Flags != y.Flags {
				return false
			}
		}
	}
	return true
}

// TestPooledBuffersNoCrossRunContamination is the classic sync.Pool
// aliasing regression test: a released trace's buffers are reused by
// the next run, and that reuse must never corrupt a trace that is
// still live.
func TestPooledBuffersNoCrossRunContamination(t *testing.T) {
	// Run A and keep it live (NOT released); snapshot its contents.
	trA := traceOf(t, []int64{1, 2, 3})
	wantA := snapshot(trA)

	// Run B on a different input, then release B's buffers to the pool.
	trB := traceOf(t, []int64{9, 8, 7, 6})
	wantB := snapshot(trB)
	trB.Release()

	// Run C reuses B's pooled buffers. A must be untouched throughout.
	trC := traceOf(t, []int64{5, 5, 5})
	wantC := snapshot(trC)
	if !sameEvents(snapshot(trA), wantA) {
		t.Fatal("live trace A was corrupted by pooled-buffer reuse")
	}

	// C itself must be exactly what an un-pooled run produces: rerun
	// the same configuration and compare event-for-event.
	trC2 := traceOf(t, []int64{5, 5, 5})
	if !equivEvents(wantC, snapshot(trC2)) {
		t.Fatal("trace built from recycled buffers differs from a fresh run")
	}

	// Double rotation: release C and A, then two more runs; outputs
	// must still be input-determined, not buffer-determined.
	trC.Release()
	trA.Release()
	trD := traceOf(t, []int64{9, 8, 7, 6})
	if !equivEvents(snapshot(trD), wantB) {
		t.Fatal("trace D (same input as B) differs after buffer recycling")
	}
}

// TestReleaseKeepsOutput documents that Release drops only the event
// buffers: the functional output survives for equivalence checks.
func TestReleaseKeepsOutput(t *testing.T) {
	tr := traceOf(t, []int64{1, 2, 3})
	if len(tr.Output) == 0 {
		t.Fatal("program printed nothing")
	}
	want := append([]int64(nil), tr.Output...)
	tr.Release()
	if tr.Segments != nil {
		t.Fatal("Release left segments behind")
	}
	for i, v := range want {
		if tr.Output[i] != v {
			t.Fatal("Release corrupted Output")
		}
	}
}
