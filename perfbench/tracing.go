package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end and the span
// that caused it (-1 for a root). Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the same code path runs untraced when
// the tracing overhead is measured.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// newRecorder returns a recorder with room for a traced run's spans, so
// recording rarely grows the slice mid-measurement.
func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<20)} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// endAs closes span id under a name chosen once the call's outcome is
// known (a store read that turned out to be a memory or a disk hit).
func (r *recorder) endAs(id int, name string) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Name = name
	r.mu.Unlock()
}

// waits returns, for every span named child, how long after its
// parent's start it began, in the unit given: the queue wait of a job
// whose parent span opened at submission.
func (r *recorder) waits(child string, unit time.Duration) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == child && s.Parent >= 0 {
			out = append(out, float64(s.Start-r.spans[s.Parent].Start)/float64(unit))
		}
	}
	return out
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent int, fn func(id int)) {
	id := r.begin(name, parent)
	fn(id)
	r.end(id)
}

// spanTotals sums, per span name, the call count, the total duration and
// the self time: a span's duration minus the part of it that its child
// spans cover (children of one parent may overlap when they ran
// concurrently, so their union is subtracted, not their sum).
type spanTotal struct {
	Calls int
	Total time.Duration
	Self  time.Duration
}

func (r *recorder) totals() map[string]spanTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotal)
	for _, s := range r.spans {
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		t := out[s.Name]
		t.Calls++
		t.Total += time.Duration(dur)
		t.Self += time.Duration(self)
		out[s.Name] = t
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of spans.
func covered(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	ivs := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, [2]int64{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var n, curA, curB int64
	for i, iv := range ivs {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			n += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	return n + curB - curA
}

// layerSelf sums self time per layer, the span-name prefix before the
// first dot ("sim.simulate" belongs to layer "sim").
func layerSelf(t map[string]spanTotal) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, st := range t {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.Self
	}
	return out
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
