package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"tlssync"
	"tlssync/internal/cluster"
)

// These tests exercise elastic membership end to end in one process:
// a node joins a live fleet via POST /cluster/join, a node leaves via
// POST /cluster/decommission with artifact handoff, and the
// anti-entropy sweeper repairs replica holes — all with the exactly-
// once invariants of the static-membership tests still holding.

// joinFleet grows f by one node through the real join protocol: the
// join POST lands on member seedIdx, and the new node boots from the
// returned view (exactly what `tlsd -join` does).
func joinFleet(t *testing.T, f *fleet, seedIdx int, benches []string) *server {
	t.Helper()
	id := fmt.Sprintf("n%d", len(f.ids))
	body, _ := json.Marshal(map[string]string{"node": id})
	resp, err := http.Post(f.ts[seedIdx].URL+"/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join = %d", resp.StatusCode)
	}
	var view cluster.MemberView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.MemberEpoch == 0 || len(view.Members) != len(f.ids)+1 {
		t.Fatalf("join view = %+v", view)
	}

	s, err := newServer(config{
		workers:    1,
		storeCap:   64,
		benchmarks: benches,
		logf:       t.Logf,
		cluster: &clusterConfig{
			nodeID:      id,
			nodes:       view.Members,
			urls:        view.URLs,
			memberEpoch: view.MemberEpoch,
			replicas:    1,
			heartbeat:   testHeartbeat,
			deadAfter:   testDeadAfter,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	f.ids = append(f.ids, id)
	f.dirs = append(f.dirs, "")
	f.srvs = append(f.srvs, s)
	f.ts = append(f.ts, ts)
	// Publish the joiner's address and the members' addresses both ways
	// (what the shared peersfile does in a real fleet).
	for i, peer := range f.srvs {
		if peer == nil || i == len(f.srvs)-1 {
			continue
		}
		peer.cluster.SetPeerURL(id, ts.URL)
		s.cluster.SetPeerURL(f.ids[i], f.ts[i].URL)
	}
	return s
}

// TestClusterJoin: a joiner admitted via POST /cluster/join becomes a
// routable member everywhere — the member epoch converges across the
// fleet, the ring rebalances, and a key now owned by the joiner is
// proxied to it and executed there exactly once.
func TestClusterJoin(t *testing.T) {
	benches := []string{"synth-11", "synth-12", "synth-13"}
	f := newFleet(t, 2, false, benches...)

	s2 := joinFleet(t, f, 0, benches)

	// Everyone converges on the epoch-1 three-member view (n1 learns by
	// broadcast or heartbeat gossip).
	for i, s := range f.srvs {
		s := s
		waitCluster(t, fmt.Sprintf("node %d sees 3 members", i), func() bool {
			return s.cluster.MemberEpoch() == 1 && len(s.cluster.Members()) == 3
		})
		waitCluster(t, fmt.Sprintf("node %d mutual liveness", i), func() bool {
			return len(s.cluster.AliveIDs()) == 3
		})
	}
	if got := f.srvs[0].cluster.Ring().Nodes(); !reflect.DeepEqual(got, []string{"n0", "n1", "n2"}) {
		t.Fatalf("ring after join: %v", got)
	}

	// A key the new ring places on the joiner executes on the joiner.
	bench, policy, akey := pickOwned(t, f.srvs[0], "n2", benches)
	rec, body := get(t, f.srvs[0], fmt.Sprintf("/simulate?bench=%s&policy=%s", bench, policy))
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate routed to joiner = %d: %s", rec.Code, rec.Body.String())
	}
	if string(body["cache"]) != `"peer"` {
		t.Fatalf("cache = %s, want \"peer\" (proxied to joiner)", body["cache"])
	}
	if got := s2.keys.executions()[akey]; got != 1 {
		t.Fatalf("joiner executions = %d, want 1", got)
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions = %d, want 1", got)
	}
}

// TestClusterDecommission: a decommissioned node hands its artifacts
// to the survivors' replica chains, removes itself from the member
// set, and the survivors keep full quorum after its process dies —
// nothing lost, nothing double-run.
func TestClusterDecommission(t *testing.T) {
	benches := []string{"synth-11", "synth-12"}
	f := newFleet(t, 3, false, benches...)

	// Seed the departing node with an artifact the survivors lack.
	bench, policy, akey := pickOwned(t, f.srvs[2], "n2", benches)
	_ = bench
	_ = policy
	f.srvs[2].store.Put(akey, []byte(`{"handoff":true}`))

	resp, err := http.Post(f.ts[2].URL+"/cluster/decommission", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ans struct {
		Status        string   `json:"status"`
		MemberEpoch   uint64   `json:"member_epoch"`
		Members       []string `json:"members"`
		HandoffPushed int      `json:"handoff_pushed"`
		HandoffFailed int      `json:"handoff_failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ans.Status != "decommissioned" {
		t.Fatalf("decommission = %d %+v", resp.StatusCode, ans)
	}
	if ans.MemberEpoch != 1 || !reflect.DeepEqual(ans.Members, []string{"n0", "n1"}) {
		t.Fatalf("departure view = %+v", ans)
	}
	if ans.HandoffPushed == 0 || ans.HandoffFailed != 0 {
		t.Fatalf("handoff pushed=%d failed=%d, want >0/0", ans.HandoffPushed, ans.HandoffFailed)
	}

	// The handed-off artifact lives on its new replica chain (both
	// survivors — 2 nodes, 1 replica).
	for _, i := range []int{0, 1} {
		if _, ok := f.srvs[i].store.Get(akey); !ok {
			t.Fatalf("survivor n%d lacks the handed-off artifact", i)
		}
	}

	// Survivors converge on the 2-member view; killing the departed
	// process must not dent their quorum.
	for _, i := range []int{0, 1} {
		s := f.srvs[i]
		waitCluster(t, "survivor sees 2 members", func() bool {
			return s.cluster.MemberEpoch() == 1 && len(s.cluster.Members()) == 2
		})
	}
	f.kill(2)
	time.Sleep(2 * testDeadAfter)
	for _, i := range []int{0, 1} {
		st := f.srvs[i].cluster.StatusNow()
		if !st.Quorum || st.Alive != 2 {
			t.Fatalf("survivor n%d after departure: quorum=%v alive=%d, want 2/2", i, st.Quorum, st.Alive)
		}
	}

	// A second decommission request on a survivor fleet of two still
	// works; the LAST member must refuse.
	resp, err = http.Post(f.ts[1].URL+"/cluster/decommission", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second decommission = %d", resp.StatusCode)
	}
	waitCluster(t, "n0 alone", func() bool {
		return len(f.srvs[0].cluster.Members()) == 1
	})
	resp, err = http.Post(f.ts[0].URL+"/cluster/decommission", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("last member accepted its own decommission")
	}
}

// TestClusterInflight: the cross-node singleflight probe answers from
// the key table — queued and adopting counts for the default probe,
// the running count alone for `exec=1` — and counts overlap.
func TestClusterInflight(t *testing.T) {
	s := fleetNode(t, "n0", []string{"n0", "n1"}, nil, "", []string{"synth-11"})
	defer s.Close()

	w, _ := s.workload("synth-11")
	akey := tlssync.WorkloadArtifactKey("simulate", w, "C")

	probe := func(query string) bool {
		rec, body := get(t, s, "/cluster/inflight?key="+akey+query)
		if rec.Code != http.StatusOK {
			t.Fatalf("/cluster/inflight = %d", rec.Code)
		}
		return string(body["computing"]) == "true"
	}
	want := func(what string, inflight, running bool) {
		t.Helper()
		if got := probe(""); got != inflight {
			t.Fatalf("%s: in flight = %v, want %v", what, got, inflight)
		}
		if got := probe("&exec=1"); got != running {
			t.Fatalf("%s: exec=1 = %v, want %v", what, got, running)
		}
	}
	want("idle key", false, false)
	leaveQueued := s.keys.enter(akey, phaseQueued)
	want("queued key", true, false)
	leaveRunning := s.keys.enter(akey, phaseRunning)
	want("running key", true, true)
	leaveRunning()
	want("execution done", true, false)
	leaveOverlap := s.keys.enter(akey, phaseQueued) // overlapping waiter
	leaveQueued()
	want("refcount dropped early", true, false)
	leaveOverlap()
	want("finished key", false, false)

	// Two overlapping adoptions: the first to finish must not clear the
	// other's count.
	leaveA := s.keys.enter(akey, phaseAdopting)
	leaveB := s.keys.enter(akey, phaseAdopting)
	want("adopting key", true, false)
	leaveA()
	want("overlapping adoption", true, false)
	leaveB()
	want("adoptions done", false, false)
	if n := len(s.keys.m); n != 0 {
		t.Errorf("key table holds %d entries after every count left, want 0", n)
	}

	rec, _ := get(t, s, "/cluster/inflight")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("inflight without key = %d, want 400", rec.Code)
	}
}

// TestClusterAntiEntropy: with the sweeper armed, a replica hole (the
// push was never sent — e.g. dropped on a full queue) heals within a
// sweep period in both directions.
func TestClusterAntiEntropy(t *testing.T) {
	benches := []string{"synth-11"}
	ids := []string{"n0", "n1"}
	mk := func(id string) *server {
		s, err := newServer(config{
			workers:    1,
			storeCap:   64,
			benchmarks: benches,
			logf:       t.Logf,
			cluster: &clusterConfig{
				nodeID:    id,
				nodes:     ids,
				replicas:  1,
				heartbeat: testHeartbeat,
				deadAfter: testDeadAfter,
				sweep:     50 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0, s1 := mk("n0"), mk("n1")
	ts0, ts1 := httptest.NewServer(s0), httptest.NewServer(s1)
	defer func() { ts0.Close(); ts1.Close(); s0.Close(); s1.Close() }()
	s0.cluster.SetPeerURL("n1", ts1.URL)
	s1.cluster.SetPeerURL("n0", ts0.URL)
	for _, s := range []*server{s0, s1} {
		s := s
		waitCluster(t, "liveness", func() bool { return len(s.cluster.AliveIDs()) == 2 })
	}

	// With 2 nodes and 1 replica every key belongs on both: one hole in
	// each direction.
	s0.store.Put("key-only-on-n0", []byte(`{"a":1}`))
	s1.store.Put("key-only-on-n1", []byte(`{"b":2}`))

	waitCluster(t, "hole pushed n0→n1", func() bool {
		_, ok := s1.store.Get("key-only-on-n0")
		return ok
	})
	waitCluster(t, "hole healed n1→n0", func() bool {
		_, ok := s0.store.Get("key-only-on-n1")
		return ok
	})
	// Both holes can be healed by n1's sweeper alone (it pulls what its
	// chain is owed and pushes what n0's is), so n0's own counters may
	// still be zero the instant the stores converge — wait for its next
	// tick rather than sampling once.
	waitCluster(t, "sweep accounted", func() bool {
		st := s0.cluster.StatusNow()
		return st.AntiEntropy["sweeps"] > 0
	})
	fleet := func(key string) int64 {
		return s0.cluster.StatusNow().AntiEntropy[key] + s1.cluster.StatusNow().AntiEntropy[key]
	}
	if fleet("repair_pushed")+fleet("repair_pulled") == 0 {
		t.Fatalf("no repairs accounted on either node: n0=%v n1=%v",
			s0.cluster.StatusNow().AntiEntropy, s1.cluster.StatusNow().AntiEntropy)
	}
}
