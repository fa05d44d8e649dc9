package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tlssync"
	"tlssync/internal/journal"
	"tlssync/internal/store"
)

// The cluster integration tests run real multi-node fleets in one
// process: each node is a full *server (own store, journal, engine,
// detector) listening on an httptest server, wired to its peers by
// URL. Fast detector settings keep the kill→adopt→reboot cycle under
// a second of protocol time; the simulations themselves use synth
// workloads so each cold key costs one quick compile.

const (
	testHeartbeat = 25 * time.Millisecond
	testDeadAfter = 150 * time.Millisecond
)

// fleet is an in-process cluster of tlsd nodes.
type fleet struct {
	t    *testing.T
	ids  []string
	dirs []string
	srvs []*server
	ts   []*httptest.Server
}

// fleetNode builds (or reboots) one member. urls seeds static peer
// addresses — used on reboot so the fence query has targets before
// the detector's first round completes.
func fleetNode(t *testing.T, id string, nodes []string, urls map[string]string, dir string, benches []string) *server {
	t.Helper()
	s, err := newServer(config{
		workers:    1,
		storeCap:   64,
		cacheDir:   dir,
		benchmarks: benches,
		logf:       t.Logf,
		cluster: &clusterConfig{
			nodeID:    id,
			nodes:     nodes,
			urls:      urls,
			replicas:  1,
			heartbeat: testHeartbeat,
			deadAfter: testDeadAfter,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newFleet starts n nodes (n0..n<n-1>), cross-wires their URLs, and
// waits for full mutual liveness. disk=true gives each node a
// journal-backed cache dir (required for adoption/fencing tests).
func newFleet(t *testing.T, n int, disk bool, benches ...string) *fleet {
	t.Helper()
	f := &fleet{t: t}
	for i := 0; i < n; i++ {
		f.ids = append(f.ids, fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		dir := ""
		if disk {
			dir = filepath.Join(t.TempDir(), "cache")
		}
		f.dirs = append(f.dirs, dir)
		s := fleetNode(t, f.ids[i], f.ids, nil, dir, benches)
		f.srvs = append(f.srvs, s)
		f.ts = append(f.ts, httptest.NewServer(s))
	}
	t.Cleanup(func() {
		for i := range f.srvs {
			if f.ts[i] != nil {
				f.ts[i].Close()
			}
			if f.srvs[i] != nil {
				f.srvs[i].Close()
			}
		}
	})
	for i, s := range f.srvs {
		for j := range f.srvs {
			if i != j {
				s.cluster.SetPeerURL(f.ids[j], f.ts[j].URL)
			}
		}
	}
	for _, s := range f.srvs {
		s := s
		waitCluster(t, "fleet mutual liveness", func() bool {
			return len(s.cluster.AliveIDs()) == n
		})
	}
	return f
}

// kill SIGKILL-equivalently removes node i: the listener closes (peers
// see connection refused, exactly like a dead process) and the server
// shuts down, leaving its journal and epoch file on disk.
func (f *fleet) kill(i int) {
	f.ts[i].Close()
	f.srvs[i].Close()
	f.ts[i], f.srvs[i] = nil, nil
}

// reboot restarts node i over its surviving cache dir, seeding the
// current URLs of the live peers (as tlssim's peers file would).
func (f *fleet) reboot(i int, benches []string) {
	urls := map[string]string{}
	for j := range f.srvs {
		if j != i && f.ts[j] != nil {
			urls[f.ids[j]] = f.ts[j].URL
		}
	}
	f.srvs[i] = fleetNode(f.t, f.ids[i], f.ids, urls, f.dirs[i], benches)
	f.ts[i] = httptest.NewServer(f.srvs[i])
}

// pickOwned finds a (bench, policy) pair whose artifact key the ring
// places on the wanted owner.
func pickOwned(t *testing.T, s *server, owner string, benches []string) (bench, policy, akey string) {
	t.Helper()
	for _, b := range benches {
		w, ok := s.workload(b)
		if !ok {
			t.Fatalf("bench %q not in serving set", b)
		}
		for _, p := range tlssync.PolicyLabels {
			k := tlssync.WorkloadArtifactKey("simulate", w, p)
			if s.cluster.Ring().Owner(k) == owner {
				return b, p, k
			}
		}
	}
	t.Fatalf("no key owned by %s across %v", owner, benches)
	return "", "", ""
}

// waitCluster is waitFor with a longer deadline: cluster transitions
// may sit behind a synth-benchmark compile.
func waitCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// jsonContains reports whether a raw JSON string array holds want
// (an already-quoted element).
func jsonContains(raw json.RawMessage, want string) bool {
	var items []json.RawMessage
	if json.Unmarshal(raw, &items) != nil {
		return false
	}
	for _, it := range items {
		if string(it) == want {
			return true
		}
	}
	return false
}

// totalExecutions sums one key's execution counters across the live
// fleet — the scenario-level "zero double-computed" evidence.
func (f *fleet) totalExecutions(akey string) int64 {
	var n int64
	for _, s := range f.srvs {
		if s != nil {
			n += s.executionsSnapshot()[akey]
		}
	}
	return n
}

func TestParsePeers(t *testing.T) {
	nodes, urls, err := parsePeers("n0,n1=http://h:1,n2=h2:2/,")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"n0", "n1", "n2"}; fmt.Sprint(nodes) != fmt.Sprint(want) {
		t.Fatalf("nodes = %v, want %v", nodes, want)
	}
	if urls["n1"] != "http://h:1" || urls["n2"] != "http://h2:2" {
		t.Fatalf("urls = %v", urls)
	}
	if _, _, err := parsePeers("=http://h:1"); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestBumpEpoch(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		got, err := bumpEpoch(store.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch = %d, want %d", got, want)
		}
	}
}

// TestClusterRoutesToOwner: a cold request at a non-owner is proxied
// to the ring owner (which executes exactly once), the proxy caches
// the artifact, and the next request at the non-owner is a local warm
// hit — cross-node singleflight end to end.
func TestClusterRoutesToOwner(t *testing.T) {
	benches := []string{"synth-11", "synth-12", "synth-13"}
	f := newFleet(t, 3, false, benches...)

	bench, policy, akey := pickOwned(t, f.srvs[0], "n1", benches)
	path := fmt.Sprintf("/simulate?bench=%s&policy=%s", bench, policy)

	rec, body := get(t, f.srvs[0], path)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied simulate = %d: %s", rec.Code, rec.Body.String())
	}
	if string(body["cache"]) != `"peer"` {
		t.Fatalf("cache = %s, want \"peer\"", body["cache"])
	}
	if got := f.srvs[1].executionsSnapshot()[akey]; got != 1 {
		t.Fatalf("owner n1 executions = %d, want 1", got)
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions = %d, want 1", got)
	}

	// The proxy cached the artifact: n0 now serves it without touching
	// the cluster.
	rec, _ = get(t, f.srvs[0], path)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Tlsd-Cache") != "hit" {
		t.Fatalf("second request = %d, X-Tlsd-Cache %q, want warm hit",
			rec.Code, rec.Header().Get("X-Tlsd-Cache"))
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions after warm hit = %d, want 1", got)
	}
}

// TestClusterQuorumFailClosed: a node that cannot see a majority
// sheds cold compute with 503 + Retry-After (fail closed — the
// majority side may be executing the same key), still serves warm
// hits, and sheds forwarded requests rather than re-forwarding them.
func TestClusterQuorumFailClosed(t *testing.T) {
	// Three-node membership, but the peers are never started: this
	// node is a 1/3 minority from boot.
	s := fleetNode(t, "n0", []string{"n0", "n1", "n2"}, nil, "", []string{"synth-11"})
	defer s.Close()

	rec, _ := get(t, s, "/simulate?bench=synth-11&policy=C")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold simulate without quorum = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Warm hits bypass routing entirely: replicas must keep serving
	// their copies on the minority side.
	w, _ := s.workload("synth-11")
	akey := tlssync.WorkloadArtifactKey("simulate", w, "C")
	s.store.Put(akey, []byte(`{"warm":true}`))
	rec, _ = get(t, s, "/simulate?bench=synth-11&policy=C")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm hit without quorum = %d, want 200", rec.Code)
	}

	// A forwarded request is never forwarded again — without quorum it
	// sheds so disagreeing ring views cannot loop.
	req := httptest.NewRequest("GET", "/simulate?bench=synth-11&policy=B", nil)
	req.Header.Set(peerHeader, "n1")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("forwarded request without quorum = %d, want 503", rr.Code)
	}

	// /readyz must say why (degraded stays 200 — warm hits still work).
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusOK || string(body["status"]) != `"degraded"` {
		t.Fatalf("readyz without quorum = %d, status %s, want 200/degraded", rec.Code, body["status"])
	}
	if want := `"cluster quorum lost (1/3 alive)"`; !jsonContains(body["reasons"], want) {
		t.Fatalf("readyz reasons = %s, want %s", body["reasons"], want)
	}
}

// TestClusterAdoptionAndFence is the kill9→adopt→reboot cycle in
// miniature: a journaled-pending job on n0 is gossiped, n0 dies, the
// key's first alive successor adopts and executes it exactly once,
// and the rebooted n0 (epoch bumped) fences the journal entry against
// its peers' adoption records instead of re-running — then serves the
// key by deferring to the adopter. Zero lost, zero double-executed.
func TestClusterAdoptionAndFence(t *testing.T) {
	benches := []string{"synth-21", "synth-22", "synth-23", "synth-24"}
	f := newFleet(t, 3, true, benches...)

	bench, policy, akey := pickOwned(t, f.srvs[0], "n0", benches)
	jkey := "test-pending-job"
	f.srvs[0].journal.Begin(journal.Record{Key: jkey, Kind: "simulate", Bench: bench, Label: policy})

	// Wait until the survivors have gossiped n0's pending job — the
	// adoption safety net only holds what heartbeats carried.
	for _, i := range []int{1, 2} {
		s := f.srvs[i]
		waitCluster(t, "pending job gossiped", func() bool {
			for _, p := range s.cluster.StatusNow().Peers {
				if p.ID == "n0" && p.Pending >= 1 {
					return true
				}
			}
			return false
		})
	}

	f.kill(0)

	// Exactly one survivor — the key's first alive successor — adopts
	// and completes the job.
	adoptions := func() (total, done int) {
		for _, i := range []int{1, 2} {
			for _, a := range f.srvs[i].cluster.Adoptions("n0") {
				if a.Key == jkey {
					total++
					if a.Done {
						done++
					}
				}
			}
		}
		return
	}
	waitCluster(t, "job adopted and completed", func() bool {
		_, done := adoptions()
		return done == 1
	})
	if total, _ := adoptions(); total != 1 {
		t.Fatalf("job adopted by %d nodes, want exactly 1", total)
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions after adoption = %d, want 1", got)
	}

	// Reboot n0 over the same cache dir. The journal still holds the
	// pending entry; the epoch fence must commit it away instead of
	// re-running it.
	f.reboot(0, benches)
	s0 := f.srvs[0]
	if got := s0.cluster.Epoch(); got != 2 {
		t.Fatalf("rebooted epoch = %d, want 2", got)
	}
	waitCluster(t, "fenced journal entry committed away", func() bool {
		return len(s0.journal.Pending()) == 0
	})
	if got := s0.executionsSnapshot()[akey]; got != 0 {
		t.Fatalf("rebooted n0 executed fenced job %d time(s), want 0", got)
	}

	// The rebooted owner serves its key by deferring to the adopter
	// (whose copy is warm) — never by computing a second time.
	waitCluster(t, "rebooted node regains quorum", func() bool {
		return len(s0.cluster.AliveIDs()) == 3
	})
	rec, _ := get(t, s0, fmt.Sprintf("/simulate?bench=%s&policy=%s", bench, policy))
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate on rebooted owner = %d: %s", rec.Code, rec.Body.String())
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions after reboot+serve = %d, want 1", got)
	}
}

// TestClusterReplication: the owner's committed artifact lands on its
// ring successor, which then serves it warm without executing.
func TestClusterReplication(t *testing.T) {
	benches := []string{"synth-11", "synth-12", "synth-13"}
	f := newFleet(t, 3, false, benches...)

	bench, policy, akey := pickOwned(t, f.srvs[0], "n0", benches)
	rec, _ := get(t, f.srvs[0], fmt.Sprintf("/simulate?bench=%s&policy=%s", bench, policy))
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate at owner = %d: %s", rec.Code, rec.Body.String())
	}

	succ := f.srvs[0].cluster.Ring().Successors(akey, 2)[1]
	var replica *server
	for i, id := range f.ids {
		if id == succ {
			replica = f.srvs[i]
		}
	}
	waitCluster(t, "artifact replicated to successor", func() bool {
		_, ok := replica.store.Get(akey)
		return ok
	})
	if got := replica.executionsSnapshot()[akey]; got != 0 {
		t.Fatalf("replica executed %d time(s), want 0 (push only)", got)
	}
	if got := f.totalExecutions(akey); got != 1 {
		t.Fatalf("fleet executions = %d, want 1", got)
	}
}

// TestClusterStatusSurfaces: /cluster, /stats and /readyz all expose
// the cluster view.
func TestClusterStatusSurfaces(t *testing.T) {
	f := newFleet(t, 3, false, "synth-11")
	s := f.srvs[0]

	rec, body := get(t, s, "/cluster")
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster = %d", rec.Code)
	}
	var st struct {
		Self   string `json:"self"`
		Quorum bool   `json:"quorum"`
		Alive  int    `json:"alive"`
	}
	if err := json.Unmarshal(body["cluster"], &st); err != nil {
		t.Fatalf("cluster section: %v", err)
	}
	if st.Self != "n0" || !st.Quorum || st.Alive != 3 {
		t.Fatalf("cluster = %+v", st)
	}

	rec, body = get(t, s, "/stats")
	if rec.Code != http.StatusOK || body["cluster"] == nil {
		t.Fatalf("/stats = %d, cluster section %s", rec.Code, body["cluster"])
	}
	rec, body = get(t, s, "/readyz")
	if rec.Code != http.StatusOK || body["cluster"] == nil {
		t.Fatalf("/readyz = %d (%s)", rec.Code, rec.Body.String())
	}

	rec, _ = get(t, s, "/cluster/heartbeat")
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster/heartbeat = %d", rec.Code)
	}
}
