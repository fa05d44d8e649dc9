package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tlssync"
	"tlssync/internal/sim"
)

// TestSimulateSpecGuards drives simulateSpec's late guards directly:
// the landed-result check every node makes, and the cluster node's
// checks for a landed artifact, a peer's fence (with its TTL and the
// mutual-adoption tiebreak) and a chain peer's started execution. Each
// case checks the outcome, how many artifacts were stored, and that no
// journaled intent is left pending — a guard that defers must still
// retire the intent it began.
func TestSimulateSpecGuards(t *testing.T) {
	const bench, policy = "synth-11", "C"
	ctx := context.Background()
	benches := []string{bench}
	pair := []string{"n0", "n1"}

	single := func(t *testing.T) *server {
		s, err := newServer(config{
			workers:    1,
			storeCap:   64,
			cacheDir:   filepath.Join(t.TempDir(), "cache"),
			benchmarks: benches,
			logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	node := func(t *testing.T, id string) *server {
		s := fleetNode(t, id, pair, nil, filepath.Join(t.TempDir(), "cache"), benches)
		t.Cleanup(s.Close)
		return s
	}
	akeyOf := func(s *server) string {
		w, _ := s.workload(bench)
		return tlssync.WorkloadArtifactKey("simulate", w, policy)
	}
	simulate := func(t *testing.T, s *server) (*sim.Result, error) {
		t.Helper()
		run, err := s.run(ctx, bench)
		if err != nil {
			t.Fatal(err)
		}
		return s.simulateSpec(ctx, run, bench, policy)
	}
	check := func(t *testing.T, s *server, wantPuts int64) {
		t.Helper()
		if got := s.store.Stats().Puts; got != wantPuts {
			t.Errorf("store puts = %d, want %d", got, wantPuts)
		}
		if p := s.journal.Pending(); len(p) != 0 {
			t.Errorf("journal left %d intent(s) pending: %+v", len(p), p)
		}
	}
	executes := func(t *testing.T, s *server) {
		t.Helper()
		res, err := simulate(t, s)
		if err != nil || res == nil {
			t.Fatalf("simulateSpec = %v, %v; want an execution", res, err)
		}
		check(t, s, 1)
	}
	defers := func(t *testing.T, s *server, want error, wantPuts int64) {
		t.Helper()
		res, err := simulate(t, s)
		if !errors.Is(err, want) || res != nil {
			t.Fatalf("simulateSpec = %v, %v; want %v", res, err, want)
		}
		check(t, s, wantPuts)
	}

	t.Run("single-node-landed", func(t *testing.T) {
		s := single(t)
		first, err := simulate(t, s)
		if err != nil {
			t.Fatal(err)
		}
		second, err := simulate(t, s)
		if err != nil {
			t.Fatal(err)
		}
		if second != first {
			t.Error("second call did not return the landed *sim.Result")
		}
		check(t, s, 1)
	})

	t.Run("artifact-in-store", func(t *testing.T) {
		s := node(t, "n0")
		s.store.Put(akeyOf(s), []byte(`{"landed":true}`))
		defers(t, s, errArtifactLanded, 1)
	})

	t.Run("fenced-by-peer", func(t *testing.T) {
		s := node(t, "n0")
		s.keys.fence(akeyOf(s), "n1", time.Now().Add(adoptedAwayTTL))
		defers(t, s, errComputingElsewhere, 0)
	})

	t.Run("fence-expired", func(t *testing.T) {
		s := node(t, "n0")
		s.keys.fence(akeyOf(s), "n1", time.Now().Add(-time.Second))
		executes(t, s)
	})

	t.Run("mutual-adoption", func(t *testing.T) {
		// Each node adopted the other's journal entry for the key and
		// holds a fence naming the other: the lower ID executes.
		n0, n1 := node(t, "n0"), node(t, "n1")
		n0.keys.fence(akeyOf(n0), "n1", time.Now().Add(adoptedAwayTTL))
		defer n0.keys.enter(akeyOf(n0), phaseAdopting)()
		n1.keys.fence(akeyOf(n1), "n0", time.Now().Add(adoptedAwayTTL))
		defer n1.keys.enter(akeyOf(n1), phaseAdopting)()
		executes(t, n0)
		defers(t, n1, errComputingElsewhere, 0)
	})

	t.Run("chain-peer-executing", func(t *testing.T) {
		// The fake peer reports the key as started (exec=1) and nothing
		// else: only a started execution makes this node defer.
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/inflight" && r.URL.Query().Get("exec") == "1" {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"computing": true}`)
				return
			}
			http.NotFound(w, r)
		}))
		defer peer.Close()
		s := node(t, "n0")
		s.cluster.SetPeerURL("n1", peer.URL)
		defers(t, s, errComputingElsewhere, 0)
	})
}

// TestKeyTableConcurrent: goroutines entering and leaving every phase
// of a few keys, fencing, unfencing and landing them, leave each key
// with its executions and landed result and nothing else.
func TestKeyTableConcurrent(t *testing.T) {
	tbl := keyTable{m: make(map[string]*keyState)}
	keys := []string{"a", "b", "c"}
	res := &sim.Result{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				leave := tbl.enter(k, phase(i%int(numPhases)))
				tbl.fence(k, "n1", time.Now().Add(time.Minute))
				tbl.get(k).inflight(i%2 == 0)
				tbl.unfence(k)
				if i%50 == 0 {
					tbl.land(k, res)
				}
				leave()
			}
		}(g)
	}
	wg.Wait()
	execs := tbl.executions()
	for _, k := range keys {
		got := tbl.get(k)
		if got.inflight(false) || got.inflight(true) || got.adopter != "" || got.landed != res {
			t.Errorf("key %s left in state %+v", k, got)
		}
		if execs[k] == 0 {
			t.Errorf("key %s: no executions counted", k)
		}
	}
	var total int64
	for _, n := range execs {
		total += n
	}
	if total != 8*4 {
		t.Errorf("executions = %d, want %d", total, 8*4)
	}
}
