package trace

import "sync"

// Event buffers are the interpreter's allocation hot loop: every dynamic
// instruction appends one op word (and a data-carrying one an Operand),
// and a full figure sweep produces tens of millions of them across
// traces that are analyzed once and discarded. The pool below recycles
// the backing arrays of those buffers between runs. Ownership is explicit: a ProgramTrace owns its
// buffers until Release is called, after which the trace's segments
// must not be touched again — the classic sync.Pool aliasing bug
// (releasing a buffer something still reads) is what
// interp's contamination test guards against.

// minEventCap is the smallest op buffer the pool hands out or takes
// back; tiny buffers are cheaper to reallocate than to recycle.
const minEventCap = 64

// eventPool holds *Events: one pooled object carries both the op and the
// operand buffer of a stream, so a Get/Put cycle costs one allocation
// (the header Put boxes), not one per buffer.
var eventPool = sync.Pool{}

// GetEvents returns an empty event stream, reusing pooled backing
// arrays when available. Append to it as usual; buffers that outgrow
// their capacity migrate to the pool at their grown size.
func GetEvents() Events {
	if v := eventPool.Get(); v != nil {
		e := v.(*Events)
		return Events{Ops: e.Ops[:0], Data: e.Data[:0]}
	}
	return Events{Ops: make([]int32, 0, minEventCap)}
}

// PutEvents returns one event stream's buffers to the pool. The caller
// must not use the stream afterwards. Streams are pointer-free (the
// static instruction is an index, not an *ir.Instr), so pooled buffers
// cannot pin anything and need no zeroing pass — the memclr that used
// to dominate the profile of buffer-heavy runs (see docs/perf.md).
// Stale contents beyond the logical length are invisible: GetEvents
// hands the buffers back at length zero and every consumer appends.
func PutEvents(e Events) {
	if cap(e.Ops) < minEventCap {
		return
	}
	e.Ops, e.Data = e.Ops[:0], e.Data[:0]
	eventPool.Put(&e)
}

// Release returns every event buffer of the trace to the pool and
// clears the segment list. Output is kept (functional-equivalence
// checks read it after timing is done). Call it only when nothing —
// profiler, simulator, cache — still references the trace's events;
// traces memoized for reuse (Run's per-binary trace cells) are never
// released.
func (t *ProgramTrace) Release() {
	for i := range t.Segments {
		s := &t.Segments[i]
		PutEvents(s.Seq)
		s.Seq = Events{}
		if s.Region != nil {
			for _, e := range s.Region.Epochs {
				PutEvents(e.Events)
				e.Events = Events{}
			}
			s.Region = nil
		}
	}
	t.Segments = nil
}
