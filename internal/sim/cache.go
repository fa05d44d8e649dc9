package sim

import (
	"fmt"
	"math/bits"
)

// cache is a set-associative LRU cache used for access latencies only;
// dependence tracking is handled separately by the epoch runs, so this
// model intentionally ignores coherence state and speculative bits.
// The set count is a power of two, so a line's set is a mask.
type cache struct {
	setMask int64 // sets - 1
	ways    int
	// tags[set*ways+way] holds the line number plus one (0: empty); lru
	// holds a per-entry logical timestamp. An empty cache is all zeros,
	// so reset is a clear.
	tags []int64
	lru  []int64
	tick int64
}

func newCache(sets, ways int) cache {
	return cache{
		setMask: int64(sets - 1),
		ways:    ways,
		tags:    make([]int64, sets*ways),
		lru:     make([]int64, sets*ways),
	}
}

// access looks up a line, fills on miss, and reports whether it hit.
func (c *cache) access(line int64) bool {
	base := int(line&c.setMask) * c.ways
	tag := line + 1
	c.tick++
	victim, oldest := base, c.lru[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.lru[i] = c.tick
			return true
		}
		if c.lru[i] < oldest {
			victim, oldest = i, c.lru[i]
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.tick
	return false
}

// reset empties the cache.
func (c *cache) reset() {
	clear(c.tags)
	clear(c.lru)
	c.tick = 0
}

// hierarchy bundles per-CPU L1s with a shared L2 and returns access
// latencies.
type hierarchy struct {
	cfg       MachineConfig
	lineShift uint // log2(cfg.LineSize)
	l1        []cache
	l2        cache
}

// checkGeometry rejects a cache geometry the shift-and-mask indexing
// cannot represent: the line size and both set counts must be powers
// of two.
func checkGeometry(cfg MachineConfig) error {
	for _, g := range []struct {
		what string
		n    int64
	}{{"LineSize", cfg.LineSize}, {"L1Sets", int64(cfg.L1Sets)}, {"L2Sets", int64(cfg.L2Sets)}} {
		if g.n <= 0 || g.n&(g.n-1) != 0 {
			return fmt.Errorf("sim: %s %d is not a power of two", g.what, g.n)
		}
	}
	return nil
}

func newHierarchy(cfg MachineConfig) *hierarchy {
	h := &hierarchy{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		l1:        make([]cache, cfg.CPUs),
		l2:        newCache(cfg.L2Sets, cfg.L2Ways),
	}
	for i := range h.l1 {
		h.l1[i] = newCache(cfg.L1Sets, cfg.L1Ways)
	}
	return h
}

// line returns the cache-line number of an address.
func (h *hierarchy) line(addr int64) int64 { return addr >> h.lineShift }

// latency performs a memory access by cpu and returns its latency.
func (h *hierarchy) latency(cpu int, addr int64) int {
	line := h.line(addr)
	if h.l1[cpu].access(line) {
		return h.cfg.L1Lat
	}
	if h.l2.access(line) {
		return h.cfg.L2Lat
	}
	return h.cfg.MemLat
}
