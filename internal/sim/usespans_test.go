package sim

import (
	"slices"
	"testing"

	"tlssync/internal/core"
	"tlssync/internal/ir"
	"tlssync/internal/workloads"
)

// TestUseSpansMatchUses checks the simulator's flattened operand tables
// against the IR's own definition: for every instruction of the four
// binaries of all 15 workloads, the use span and the inst record's
// inline uses (or, for a wide call, its span) must equal Instr.Uses,
// and AppendUses must leave an existing dst prefix intact.
func TestUseSpansMatchUses(t *testing.T) {
	prefix := []ir.Reg{7, ir.None, 3}
	for _, w := range workloads.All() {
		b, err := core.Compile(core.Config{Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		binaries := []struct {
			name string
			p    *ir.Program
		}{{"plain", b.Plain}, {"base", b.Base}, {"train", b.Train}, {"ref", b.Ref}}
		for _, bin := range binaries {
			code := bin.p.Code()
			table := getCodeTable(code, DefaultMachine())
			spans := &table.spans
			if len(spans.off) != len(code)+1 {
				t.Fatalf("%s/%s: %d span offsets for %d instructions", w.Name, bin.name, len(spans.off), len(code))
			}
			checked := 0
			for si, in := range code {
				got := spans.of(int32(si))
				if in == nil {
					if len(got) != 0 {
						t.Errorf("%s/%s: empty slot %d has span %v", w.Name, bin.name, si, got)
					}
					continue
				}
				want := in.Uses()
				if !slices.Equal(got, want) {
					t.Errorf("%s/%s: %v: span %v, Uses %v", w.Name, bin.name, in, got, want)
				}
				if rec := table.inst[si]; rec.nUses == wideUses {
					if len(want) <= len(rec.use) {
						t.Errorf("%s/%s: %v: %d uses marked wide", w.Name, bin.name, in, len(want))
					}
				} else {
					var inline []ir.Reg
					for _, u := range rec.use[:rec.nUses] {
						inline = append(inline, ir.Reg(u))
					}
					if !slices.Equal(inline, want) {
						t.Errorf("%s/%s: %v: inline uses %v, Uses %v", w.Name, bin.name, in, inline, want)
					}
				}
				dst := in.AppendUses(slices.Clone(prefix))
				if !slices.Equal(dst[:len(prefix)], prefix) || !slices.Equal(dst[len(prefix):], want) {
					t.Errorf("%s/%s: %v: AppendUses(%v) = %v, want the prefix then %v", w.Name, bin.name, in, prefix, dst, want)
				}
				checked++
			}
			if checked == 0 {
				t.Errorf("%s/%s: no instructions checked", w.Name, bin.name)
			}
			putCodeTable(table)
		}
	}
}
