package sim

import (
	"math"
	"testing"
)

// FuzzAddrTable checks addrTable against a map plus an insertion-order
// list over random operation sequences. Each pair of bytes is one
// operation on a key drawn from a small set, negative keys included, so
// sequences collide, repeat keys and grow the table. One operation is a
// reset across the generation wraparound: it jumps the generation to
// its largest value first, as four billion resets would, so slots
// stamped in the first generations must not read live again.
func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 1, 2, 1, 3, 1, 4, 0, 5, 0})
	f.Add([]byte{0, 5, 0, 0, 3, 0, 6, 5, 2, 5, 1, 0, 0, 7, 4, 7, 6, 0, 2, 7})
	var grow []byte
	for k := byte(0); k < 3*addrTableMin; k++ {
		grow = append(grow, 0, k*5)
		if k%7 == 0 {
			grow = append(grow, 4, 0)
		}
		if k%23 == 22 {
			grow = append(grow, 6, 0, 2, 0, 2, 5)
		}
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tbl addrTable[int64]
		want := map[int64]int64{}
		var order []int64
		for i := 0; i+1 < len(ops); i += 2 {
			key := (int64(ops[i+1]) - 128) * 0x1000
			switch ops[i] % 7 {
			case 0: // set if absent
				v := int64(i)
				_, had := want[key]
				if got := tbl.add(key, v); got == had {
					t.Fatalf("op %d: add(%#x) = %v with the key present: %v", i, key, got, had)
				}
				if !had {
					want[key] = v
					order = append(order, key)
				}
			case 1: // get
				v, ok := tbl.get(key)
				if wv, wok := want[key]; v != wv || ok != wok {
					t.Fatalf("op %d: get(%#x) = %d, %v, want %d, %v", i, key, v, ok, wv, wok)
				}
			case 2: // has
				if _, wok := want[key]; tbl.has(key) != wok {
					t.Fatalf("op %d: has(%#x) = %v, want %v", i, key, !wok, wok)
				}
			case 3: // len
				if tbl.len() != len(want) {
					t.Fatalf("op %d: len = %d, want %d", i, tbl.len(), len(want))
				}
			case 4: // insertion-order iteration
				if tbl.len() != len(order) {
					t.Fatalf("op %d: len = %d, want %d", i, tbl.len(), len(order))
				}
				for k, wk := range order {
					if key, v := tbl.at(k); key != wk || v != want[wk] {
						t.Fatalf("op %d: entry %d = %#x:%d, want %#x:%d", i, k, key, v, wk, want[wk])
					}
				}
			case 5, 6: // reset, case 6 across the wraparound
				if ops[i]%7 == 6 {
					tbl.gen = math.MaxUint32
				}
				tbl.reset()
				clear(want)
				order = order[:0]
				if tbl.gen == 0 {
					t.Fatalf("op %d: reset left generation 0, the stamp of unused slots", i)
				}
			}
		}
	})
}
