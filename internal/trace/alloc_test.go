package trace

import (
	"reflect"
	"testing"

	"tlssync/internal/racedetect"
)

// TestEventAppendAllocBudget is the allocation-budget regression test
// for the interpreter's hottest path: appending events to a pooled
// stream. Once a stream of sufficient capacity is circulating in the
// pool, a Get/append-many/Put cycle must allocate nothing but the
// pooled header — events are pointer-free values and both backing
// arrays (ops and operands) are recycled together. If this fails,
// either the encoding grew a pointer (breaking the no-zeroing contract
// in PutEvents) or the pool stopped recycling; see docs/perf.md.
func TestEventAppendAllocBudget(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4096
	// Warm the pool with a buffer big enough that the measured cycles
	// never need to grow it.
	warm := GetEvents()
	for i := 0; i < n; i++ {
		warm.Append(Event{SI: int32(i), Val: int64(i) + 1})
	}
	PutEvents(warm)

	// Budget 1 (not 0): GC can empty the pool's victim cache mid-run,
	// forcing one fresh backing array.
	const budget = 1.0
	allocs := testing.AllocsPerRun(100, func() {
		evs := GetEvents()
		for i := 0; i < n; i++ {
			evs.Append(Event{SI: int32(i), Addr: int64(i), Val: int64(i)})
		}
		PutEvents(evs)
	})
	if allocs > budget {
		t.Errorf("appending %d events to a pooled buffer allocates %.0f objects/op, budget %.0f — the event-buffer pool regressed (see docs/perf.md)", n, allocs, budget)
	}
}

// TestEventStaysPointerFree pins the property the whole pooling design
// rests on: trace.Event, Operand and the element types of an Events
// stream contain no pointers, so pooled buffers need no zeroing and the
// GC never scans them. Growing any of them with a pointer field would
// silently reintroduce both costs.
func TestEventStaysPointerFree(t *testing.T) {
	var hasPtr func(reflect.Type) bool
	hasPtr = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
			return true
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPtr(ty.Field(i).Type) {
					return true
				}
			}
		case reflect.Array:
			return hasPtr(ty.Elem())
		}
		return false
	}
	for _, ty := range []reflect.Type{
		reflect.TypeOf(Event{}),
		reflect.TypeOf(Operand{}),
		reflect.TypeOf(Events{}.Ops).Elem(),
		reflect.TypeOf(Events{}.Data).Elem(),
	} {
		if hasPtr(ty) {
			t.Fatalf("%v contains pointer fields: pooled buffers would pin memory and PutEvents would need a zeroing pass (see docs/perf.md)", ty)
		}
	}
}
