package trace

import (
	"testing"

	"tlssync/internal/ir"
)

func mkProgramTrace() *ProgramTrace {
	p := ir.NewProgram()
	evs := func(n int) Events {
		var e Events
		for i := 0; i < n; i++ {
			e.Append(Event{SI: int32(p.NewInstr(ir.Const).ID)})
		}
		return e
	}
	seq := evs(3)
	e0 := &Epoch{Index: 0, Events: evs(2)}
	e1 := &Epoch{Index: 1, Events: evs(4)}
	return &ProgramTrace{
		Segments: []Segment{
			{Seq: seq},
			{Region: &RegionInstance{RegionID: 0, Epochs: []*Epoch{e0, e1}}},
			{Seq: Events{Ops: seq.Ops[:1]}},
			{Region: &RegionInstance{RegionID: 1, Epochs: []*Epoch{e0}}},
		},
	}
}

func TestTraceCounts(t *testing.T) {
	tr := mkProgramTrace()
	if got := tr.Events(); got != 3+2+4+1+2 {
		t.Errorf("Events = %d, want 12", got)
	}
	if got := tr.EpochCount(); got != 3 {
		t.Errorf("EpochCount = %d, want 3", got)
	}
	if got := tr.RegionEvents(); got != 2+4+2 {
		t.Errorf("RegionEvents = %d, want 8", got)
	}
}

func TestEmptyTraceCounts(t *testing.T) {
	tr := &ProgramTrace{}
	if tr.Events() != 0 || tr.EpochCount() != 0 || tr.RegionEvents() != 0 {
		t.Error("empty trace has nonzero counts")
	}
}

func TestFlagsDistinct(t *testing.T) {
	flags := []uint8{FlagUFF, FlagStale, FlagNullSignal}
	for i, a := range flags {
		if a == 0 {
			t.Errorf("flag %d is zero", i)
		}
		for j, b := range flags {
			if i != j && a&b != 0 {
				t.Errorf("flags %d and %d overlap", i, j)
			}
		}
	}
}
