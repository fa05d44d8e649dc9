package tlssync

import (
	"runtime"
	"testing"
	"unsafe"

	"tlssync/internal/trace"
)

// streamBytes returns the backing-array bytes an event stream holds.
func streamBytes(e trace.Events) int {
	return 4*cap(e.Ops) + int(unsafe.Sizeof(trace.Operand{}))*cap(e.Data)
}

// TestRetainedTraceBytesPerEvent is the memory budget of a prepared Run:
// the base, train and ref traces it memoizes stay live for every later
// policy, so their buffer capacity per event is what a figure sweep or
// the daemon holds per program. The compact encoding stores a 4-byte op
// word per event plus a 24-byte Operand for the few events that carry
// data, about 7.5 B/event with append growth slack. The fat encoding it
// replaced, one 24-byte Event per event, held about 30 B/event, so this
// budget fails there (ROADMAP aim 3: bound what a run holds).
func TestRetainedTraceBytesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and traces two full benchmarks")
	}
	const budget = 8.0 // bytes per event
	for _, name := range []string{"parser", "gzip_comp"} {
		w, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		// Start from an empty event pool: buffers released by earlier
		// tests keep their capacity, and a small epoch that draws a
		// large one retains all of it, which measures the pool's
		// history rather than the encoding. Two collections empty a
		// sync.Pool, victim cache included.
		runtime.GC()
		runtime.GC()
		r, err := NewRun(w)
		if err != nil {
			t.Fatal(err)
		}
		bytes, events := 0, 0
		for _, bin := range []string{"base", "train", "ref"} {
			tr, _, err := r.traceFor(bin)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tr.Segments {
				bytes += streamBytes(s.Seq)
				if s.Region != nil {
					for _, e := range s.Region.Epochs {
						bytes += streamBytes(e.Events)
					}
				}
			}
			events += tr.Events()
		}
		per := float64(bytes) / float64(events)
		t.Logf("%s: %d events in %.1f MB of trace buffers, %.2f B/event", name, events, float64(bytes)/(1<<20), per)
		if per > budget {
			t.Errorf("%s: retained traces hold %.2f B/event, budget %.0f — the compact trace encoding regressed (see docs/perf.md)", name, per, budget)
		}
	}
}
