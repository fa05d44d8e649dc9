package trace

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fuzzEventSize is the fuzz encoding of one event: SI (4 bytes), Addr
// and Val (8 each, little-endian), Flags, and a mask byte whose low
// three bits keep Addr, Val and Flags (a cleared bit zeroes the field),
// so operand-free and partly-filled events are common inputs.
const fuzzEventSize = 22

// fuzzEvents decodes fuzz input into events. SI is masked to be
// non-negative, as instruction IDs are.
func fuzzEvents(b []byte) []Event {
	var out []Event
	for ; len(b) >= fuzzEventSize; b = b[fuzzEventSize:] {
		ev := Event{SI: int32(binary.LittleEndian.Uint32(b) & math.MaxInt32)}
		mask := b[21]
		if mask&1 != 0 {
			ev.Addr = int64(binary.LittleEndian.Uint64(b[4:]))
		}
		if mask&2 != 0 {
			ev.Val = int64(binary.LittleEndian.Uint64(b[12:]))
		}
		if mask&4 != 0 {
			ev.Flags = b[20]
		}
		out = append(out, ev)
	}
	return out
}

// fuzzEvent is the fuzz encoding of ev, the inverse of fuzzEvents.
func fuzzEvent(ev Event) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(ev.SI))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Addr))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Val))
	return append(b, ev.Flags, 7)
}

// decodeAll walks a stream with Decode and checks the data cursor ends
// exactly at the end of Data.
func decodeAll(t *testing.T, e Events) []Event {
	t.Helper()
	out := make([]Event, 0, e.Len())
	d := 0
	for i := 0; i < e.Len(); i++ {
		var ev Event
		ev, d = e.Decode(i, d)
		out = append(out, ev)
	}
	if d != len(e.Data) {
		t.Fatalf("decoding consumed %d of %d operands", d, len(e.Data))
	}
	return out
}

func appendEach(evs []Event) Events {
	var e Events
	for _, ev := range evs {
		e.Append(ev)
	}
	return e
}

// FuzzEventsRoundTrip checks the compact encoding is lossless: Decode
// over Appended events returns them exactly, an event carries an
// Operand exactly when it has data, and AppendAll(a, b) decodes the
// same as appending a's and b's events one by one (the epoch merge in
// the interpreter relies on it).
func FuzzEventsRoundTrip(f *testing.F) {
	seed := func(split uint8, evs ...Event) {
		var b []byte
		for _, ev := range evs {
			b = append(b, fuzzEvent(ev)...)
		}
		f.Add(split, b)
	}
	seed(0, Event{SI: 0})
	seed(1, Event{SI: math.MaxInt32}, Event{SI: 0, Addr: 1, Val: 1, Flags: FlagUFF})
	seed(1, Event{SI: 3, Flags: FlagStale}, Event{SI: 4, Val: -1}, Event{SI: 5, Addr: 0x10001})
	seed(2, Event{}, Event{}, Event{SI: math.MaxInt32, Addr: -1, Val: math.MinInt64 + 1, Flags: FlagNullSignal})
	seed(0)

	f.Fuzz(func(t *testing.T, split uint8, b []byte) {
		evs := fuzzEvents(b)
		e := appendEach(evs)
		if got := decodeAll(t, e); !slices.Equal(got, evs) {
			t.Fatalf("Append then Decode: got %+v, want %+v", got, evs)
		}
		withData := 0
		for i, ev := range evs {
			has := ev.Addr != 0 || ev.Val != 0 || ev.Flags != 0
			if has {
				withData++
			}
			if (e.Ops[i] < 0) != has {
				t.Fatalf("event %d %+v: op word %d, want an operand marker iff it has data", i, ev, e.Ops[i])
			}
		}
		if len(e.Data) != withData {
			t.Fatalf("%d operand records for %d events with data", len(e.Data), withData)
		}

		k := min(int(split), len(evs))
		merged := appendEach(evs[:k])
		merged.AppendAll(appendEach(evs[k:]))
		if got := decodeAll(t, merged); !slices.Equal(got, evs) {
			t.Fatalf("AppendAll at %d then Decode: got %+v, want %+v", k, got, evs)
		}
	})
}
