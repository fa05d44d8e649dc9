package main

import (
	"sync"
	"time"

	"tlssync/internal/sim"
)

// phase names one of the in-flight counts a key's state carries. The
// counts are refcounts, not flags: coalesced waiters and overlapping
// adoptions of one key each enter and leave on their own.
type phase int

const (
	// phaseQueued spans a simulateSpec call from its journaled begin to
	// its return, engine queue included. GET /cluster/inflight answers
	// from it, so a peer that just became the key's owner (membership
	// change) joins this node's execution instead of starting a second.
	phaseQueued phase = iota
	// phaseRunning spans only the simulation itself, inside the engine
	// job. The late guard in simulateSpec asks peers for this phase
	// alone (`exec=1`): two nodes that have merely queued a key must not
	// defer to each other, but a peer whose execution has started is
	// past its own guard and will finish.
	phaseRunning
	// phaseAdopting spans an adoption of the key (adoptJob).
	phaseAdopting
	numPhases
)

// keyState is everything this node tracks about one artifact key.
type keyState struct {
	count [numPhases]int

	// The fence: a peer adopted this key's journal entry from a
	// previous incarnation of this node, and this node defers to it
	// until the artifact lands here or the fence expires.
	adopter string
	expires time.Time

	// landed is the result of this key's completed execution. The
	// engine serializes executions per key only while they are in
	// flight: a request that warm-missed the store before an execution
	// landed can reach the engine after it finished, and landed turns
	// that into a hit instead of a second execution. Shared read-only,
	// exactly as coalesced engine waiters share a result.
	landed *sim.Result
	// executions counts completed simulate executions of the key on
	// THIS node, counted inside the engine job after the simulation
	// succeeded: coalesced waiters share one execution, and a job killed
	// mid-run counts nothing (its recovery completes the work and counts
	// once). Summed across the fleet, a key executed more than once is
	// the double-compute the routing and fencing layers exist to prevent
	// (the chaos scenarios' max_key_executions assertion).
	executions int64
}

func (k keyState) zero() bool {
	return k.count == [numPhases]int{} && k.adopter == "" && k.landed == nil && k.executions == 0
}

// inflight reports whether the key is being worked on here: queued or
// adopting, or with runningOnly, executing.
func (k keyState) inflight(runningOnly bool) bool {
	if runningOnly {
		return k.count[phaseRunning] > 0
	}
	return k.count[phaseQueued] > 0 || k.count[phaseAdopting] > 0
}

// keyTable is the server's per-artifact-key state, single node and
// cluster alike. An entry whose fields are all zero is deleted, so the
// table holds the keys in flight, fenced or landed — bounded by the
// serving set × policies.
type keyTable struct {
	mu sync.Mutex
	m  map[string]*keyState
}

// update applies fn to akey's entry under the lock, creating it first
// and deleting it again if fn leaves it all zero.
func (t *keyTable) update(akey string, fn func(*keyState)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := t.m[akey]
	if k == nil {
		k = &keyState{}
		t.m[akey] = k
	}
	fn(k)
	if k.zero() {
		delete(t.m, akey)
	}
}

// enter counts akey into phase p; the returned func counts it out.
func (t *keyTable) enter(akey string, p phase) (leave func()) {
	t.update(akey, func(k *keyState) { k.count[p]++ })
	return func() { t.update(akey, func(k *keyState) { k.count[p]-- }) }
}

// get returns a copy of akey's state (zero when untracked), dropping a
// fence past its expiry first.
func (t *keyTable) get(akey string) keyState {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := t.m[akey]
	if k == nil {
		return keyState{}
	}
	if k.adopter != "" && time.Now().After(k.expires) {
		k.adopter, k.expires = "", time.Time{}
		if k.zero() {
			delete(t.m, akey)
		}
	}
	return *k
}

// fence records that adopter took over akey's journaled job; requests
// for the key defer to it until the artifact lands or until passes.
func (t *keyTable) fence(akey, adopter string, until time.Time) {
	t.update(akey, func(k *keyState) { k.adopter, k.expires = adopter, until })
}

// unfence lifts akey's fence: the artifact is here now.
func (t *keyTable) unfence(akey string) {
	t.update(akey, func(k *keyState) { k.adopter, k.expires = "", time.Time{} })
}

// land records one completed execution of akey and its result.
func (t *keyTable) land(akey string, res *sim.Result) {
	t.update(akey, func(k *keyState) { k.landed = res; k.executions++ })
}

// executions snapshots the per-key execution counts for /cluster.
func (t *keyTable) executions() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64)
	for akey, k := range t.m {
		if k.executions > 0 {
			out[akey] = k.executions
		}
	}
	return out
}
