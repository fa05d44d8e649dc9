// Package trace defines the execution-trace records shared by the
// functional interpreter (which produces them) and the TLS timing
// simulator (which replays them under different value-communication
// policies).
//
// The reproduction uses a functional-first/timing-after split: the
// interpreter executes the program sequentially, so every load observes
// the sequentially-correct value, and emits one Event per dynamic
// instruction. The timing simulator then replays per-epoch event streams
// on a simulated 4-CPU TLS chip multiprocessor; data-dependence violations
// are decided purely by address-overlap timing, which the events carry
// exactly. A squashed epoch replays its own trace (the standard
// trace-driven approximation; see DESIGN.md §2).
//
// Streams are stored compactly (see Events): a 4-byte word per event,
// plus an Operand record only for the few events — loads, stores,
// signals, waits, prints, allocations — that carry data.
package trace

import "tlssync/internal/ir"

// Event is one dynamic instruction execution, as decoded from an Events
// stream.
//
// The static instruction is named by index (SI), not by pointer: a full
// figure sweep materializes tens of millions of events, and a pointer
// field would make every event buffer a GC-scannable object that pins
// its program's instructions. Pointer-free streams let the collector
// skip event buffers entirely and let the buffer pool recycle them
// without zeroing. Resolve SI through the owning trace's Code table:
// tr.Code[ev.SI].
type Event struct {
	// Addr is the effective address for Load/Store/LoadSync, and the
	// forwarded address for SignalMem / WaitMemAddr events.
	Addr int64

	// Val is the value loaded, stored, or forwarded.
	Val int64

	// SI is the static instruction's program-unique ID (ir.Instr.ID),
	// an index into the trace's Code table. It is never negative.
	SI int32

	// Flags carries protocol outcomes computed by the functional
	// interpreter (see the Flag* constants).
	Flags uint8
}

// Event flags.
const (
	// FlagUFF marks a LoadSync executed with the use-forwarded-value flag
	// set (address matched, no stale forwarding, no local overwrite): the
	// load is violation-immune in the timing model.
	FlagUFF uint8 = 1 << iota

	// FlagStale marks a WaitMemAddr whose producer later overwrote the
	// forwarded address (signal-address-buffer hit): the timing model
	// restarts the consumer when the producer's conflicting store executes.
	FlagStale

	// FlagNullSignal marks a WaitMemAddr that received a NULL-address
	// signal (the producer path never stored the group).
	FlagNullSignal
)

// Operand is the data an event carries: Addr, Val and Flags of its Event.
type Operand struct {
	Addr, Val int64
	Flags     uint8
}

// Events is a compact event stream. Most dynamic instructions carry no
// data, so each event is one op word, and only events with a non-zero
// Addr, Val or Flags add an Operand record:
//
//   - Ops[i] is SI, or ^SI (negative) when event i carries an Operand;
//   - Data holds those Operands in stream order.
//
// The word alone tells a reader whether a record follows, so walking the
// stream needs no Code lookup: keep a data cursor d next to the event
// index and let Decode advance it. Both slices are pointer-free.
type Events struct {
	Ops  []int32
	Data []Operand
}

// Append adds ev to the stream. ev.SI must not be negative.
func (e *Events) Append(ev Event) {
	if ev.Addr == 0 && ev.Val == 0 && ev.Flags == 0 {
		e.Ops = append(e.Ops, ev.SI)
		return
	}
	e.Ops = append(e.Ops, ^ev.SI)
	e.Data = append(e.Data, Operand{Addr: ev.Addr, Val: ev.Val, Flags: ev.Flags})
}

// AppendAll adds every event of o to the stream, in order.
func (e *Events) AppendAll(o Events) {
	e.Ops = append(e.Ops, o.Ops...)
	e.Data = append(e.Data, o.Data...)
}

// Len returns the number of events in the stream.
func (e *Events) Len() int { return len(e.Ops) }

// Decode returns event i, whose Operand (if any) is Data[d], and the data
// cursor of event i+1. Walk a stream from (0, 0):
//
//	for i, d := 0, 0; i < evs.Len(); i++ {
//		var ev Event
//		ev, d = evs.Decode(i, d)
//		...
//	}
func (e *Events) Decode(i, d int) (Event, int) {
	w := e.Ops[i]
	if w >= 0 {
		return Event{SI: w}, d
	}
	o := &e.Data[d]
	return Event{SI: ^w, Addr: o.Addr, Val: o.Val, Flags: o.Flags}, d + 1
}

// Epoch is the event stream of one loop iteration of a speculative region.
type Epoch struct {
	Index  int // iteration number within the region instance
	Events Events
}

// RegionInstance is one dynamic execution of a speculatively-parallelized
// loop: the sequence of epochs it spawned.
type RegionInstance struct {
	RegionID int
	Epochs   []*Epoch
}

// Segment is either a sequential stretch of execution or a region instance.
// Exactly one of Seq and Region is set (Seq non-empty or Region non-nil).
type Segment struct {
	Seq    Events
	Region *RegionInstance
}

// ProgramTrace is the full execution: alternating sequential segments and
// parallelized region instances, in program order.
type ProgramTrace struct {
	Segments []Segment

	// Code is the executed program's static-instruction table: Code[ev.SI]
	// is the instruction that produced ev. Each variant's trace carries
	// its own program's table (instruction IDs are preserved across
	// DeepCopy, so profiling references stay valid in every variant).
	Code ir.Code

	// Output collects values printed by the program, for functional
	// correctness checks across compiled variants.
	Output []int64
}

// Events returns the total number of events in the trace.
func (t *ProgramTrace) Events() int {
	n := 0
	for _, s := range t.Segments {
		n += s.Seq.Len()
		if s.Region != nil {
			for _, e := range s.Region.Epochs {
				n += e.Events.Len()
			}
		}
	}
	return n
}

// EpochCount returns the total number of epochs across region instances.
func (t *ProgramTrace) EpochCount() int {
	n := 0
	for _, s := range t.Segments {
		if s.Region != nil {
			n += len(s.Region.Epochs)
		}
	}
	return n
}

// RegionEvents returns the total number of events inside regions.
func (t *ProgramTrace) RegionEvents() int {
	n := 0
	for _, s := range t.Segments {
		if s.Region != nil {
			for _, e := range s.Region.Epochs {
				n += e.Events.Len()
			}
		}
	}
	return n
}
