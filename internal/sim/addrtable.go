package sim

import "math/bits"

// addrTable maps int64 keys (cache lines, word addresses) to values for
// a run's dependence state. Keys are only ever added, and the whole
// table is forgotten on a squash or a commit, so it is an
// open-addressing table with linear probing and no deletion, where a
// slot is live when its stamp equals the table's generation: reset is a
// generation bump, however large the table grew, and a full clear only
// when the generation wraps. Live slots are also listed in insertion
// order, so walking the entries costs their number, not the capacity,
// and visits them in an order that does not depend on hashing.
type addrTable[V any] struct {
	slots []addrSlot[V] // a power of two of them, at most 3/4 live
	order []int32       // live slots in insertion order
	gen   uint32        // stamp of the live slots; never 0, the stamp of an unused slot
	shift uint8         // 64 - log2(len(slots)), for the hash
}

// addrSlot is one entry: key, value and stamp side by side, so a probe
// reads one cache line.
type addrSlot[V any] struct {
	key   int64
	stamp uint32
	val   V
}

// addrTableMin is a table's first size, in slots.
const addrTableMin = 16

// len returns the number of keys.
func (t *addrTable[V]) len() int { return len(t.order) }

// find returns the slot holding key, or the free slot where it would
// go, and whether key is present. The table must have slots.
func (t *addrTable[V]) find(key int64) (int, bool) {
	mask := len(t.slots) - 1
	// Fibonacci hashing: the top bits of key times 2^64/phi.
	for i := int(uint64(key) * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp != t.gen {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// get returns key's value and whether key is present.
func (t *addrTable[V]) get(key int64) (V, bool) {
	if len(t.order) > 0 {
		if i, ok := t.find(key); ok {
			return t.slots[i].val, true
		}
	}
	var zero V
	return zero, false
}

// has reports whether key is present.
func (t *addrTable[V]) has(key int64) bool {
	if len(t.order) == 0 {
		return false
	}
	_, ok := t.find(key)
	return ok
}

// add sets key to v unless key is present, and reports whether it did.
func (t *addrTable[V]) add(key int64, v V) bool {
	if 4*(len(t.order)+1) > 3*len(t.slots) {
		if t.has(key) {
			return false
		}
		t.grow()
	}
	i, ok := t.find(key)
	if ok {
		return false
	}
	t.slots[i] = addrSlot[V]{key: key, stamp: t.gen, val: v}
	t.order = append(t.order, int32(i))
	return true
}

// at returns the k-th key added since the last reset, and its value.
func (t *addrTable[V]) at(k int) (int64, V) {
	s := &t.slots[t.order[k]]
	return s.key, s.val
}

// reset forgets every key in O(1), keeping the capacity.
func (t *addrTable[V]) reset() {
	t.order = t.order[:0]
	t.gen++
	if t.gen == 0 {
		// Wrapped: stamps of past generations could read live again.
		clear(t.slots)
		t.gen = 1
	}
}

// grow doubles the table (or allocates the first one) and re-inserts
// the live keys in insertion order.
func (t *addrTable[V]) grow() {
	old, order := t.slots, t.order
	n := max(2*len(old), addrTableMin)
	t.slots = make([]addrSlot[V], n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	t.gen = max(t.gen, 1)
	// Rewriting order in place is safe: entry k is read before it is
	// written.
	t.order = t.order[:0]
	for _, i := range order {
		s := old[i]
		j, _ := t.find(s.key)
		t.slots[j] = addrSlot[V]{key: s.key, stamp: t.gen, val: s.val}
		t.order = append(t.order, int32(j))
	}
}
