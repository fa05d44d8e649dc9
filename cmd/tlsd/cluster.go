package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tlssync"
	"tlssync/internal/cluster"
	"tlssync/internal/store"
)

// This file is the daemon side of internal/cluster: epoch
// persistence, the /cluster/* endpoints, request routing (proxy to
// the key's acting owner, never recompute), artifact replication,
// dead-node job adoption, and the epoch fence that keeps a rebooted
// node from re-running work its successor already adopted. See
// docs/cluster.md for the protocol.

// peerHeader marks a /simulate request as forwarded by a peer. A
// forwarded request is never forwarded again: if the receiver does
// not consider itself responsible for the key, it sheds with 503 and
// the client's retry converges once ring views agree — a hard loop
// bound instead of a TTL.
const peerHeader = "X-Tlsd-Forwarded"

// fenceTimeout bounds how long boot-time journal recovery waits for
// peers to answer the adoption fence query before proceeding
// un-fenced (re-running is wasteful but safe: artifacts are
// immutable and content-addressed).
const fenceTimeout = 10 * time.Second

// adoptedAwayTTL bounds how long this node defers to an adopter that
// never finishes (e.g. the adopter itself died). After the TTL the
// key is computed locally again.
const adoptedAwayTTL = 30 * time.Second

// decommissionDrain bounds how long POST /cluster/decommission waits
// for this node's journaled-pending backlog to drain before refusing
// with 409 — a decommission must never orphan begun work.
const decommissionDrain = 10 * time.Second

// clusterConfig is the parsed -node-id/-peers/... flag set.
type clusterConfig struct {
	nodeID      string
	nodes       []string          // boot membership, including self
	urls        map[string]string // static id → base URL from -peers
	selfURL     string            // advertised base URL (gossiped so late joiners find us)
	memberEpoch uint64            // member-set version a joiner boots with (0: seed boot)
	peersFile   string
	replicas    int
	heartbeat   time.Duration
	deadAfter   time.Duration
	sweep       time.Duration // anti-entropy period (0: off)
}

// parsePeers parses the -peers flag: comma-separated node ids, each
// optionally with a static address ("n0,n1=http://host:port,n2").
// Addresses are usually left to -peersfile, which also follows port
// changes across restarts.
func parsePeers(spec string) (nodes []string, urls map[string]string, err error) {
	urls = make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, has := strings.Cut(part, "=")
		if id == "" {
			return nil, nil, fmt.Errorf("empty node id in -peers %q", spec)
		}
		nodes = append(nodes, id)
		if has {
			if !strings.Contains(addr, "://") {
				addr = "http://" + addr
			}
			urls[id] = strings.TrimSuffix(addr, "/")
		}
	}
	return nodes, urls, nil
}

// bumpEpoch persists and returns this node's boot incarnation: a
// counter under the cache dir, incremented on every start. The epoch
// is what distinguishes "the n1 that died and whose jobs were
// adopted" from "the n1 serving now": adoptions are recorded against
// the epoch that died, and a rebooted node only fences journal
// entries adopted at an epoch strictly below its current one.
func bumpEpoch(fsys store.FS, cacheDir string) (uint64, error) {
	dir := filepath.Join(cacheDir, "cluster")
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "epoch")
	var epoch uint64
	if data, err := store.ReadFile(fsys, path); err == nil {
		if v, perr := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64); perr == nil {
			epoch = v
		}
	}
	epoch++
	if err := store.WriteFileAtomic(fsys, path, []byte(strconv.FormatUint(epoch, 10)+"\n"), 0o777); err != nil {
		return 0, err
	}
	return epoch, nil
}

// fireCluster triggers a cluster fault point ("cluster.in" for
// inbound peer traffic, "cluster.out" for outbound); nil without the
// fault surface.
func (s *server) fireCluster(point string) error {
	if s.cfg.faults == nil {
		return nil
	}
	return s.cfg.faults.Fire(point)
}

// clusterPending maps the journal's live pending set to gossip jobs:
// what a successor needs to finish this node's work if it dies now.
// The artifact key is computable from the workload alone — no
// compile needed — which is what makes adoption cheap to route.
func (s *server) clusterPending() []cluster.Job {
	if s.journal == nil {
		return nil
	}
	var out []cluster.Job
	for _, p := range s.journal.Pending() {
		rec := p.Record
		w, ok := s.workload(rec.Bench)
		if rec.Kind != "simulate" || !ok || !slices.Contains(tlssync.PolicyLabels, rec.Label) {
			continue
		}
		out = append(out, cluster.Job{
			Key:   rec.Key,
			AKey:  tlssync.WorkloadArtifactKey("simulate", w, rec.Label),
			Bench: rec.Bench,
			Label: rec.Label,
		})
		if len(out) >= 512 { // bound the heartbeat payload
			break
		}
	}
	return out
}

// clusterLocalStatus is the readiness string gossiped in heartbeats.
func (s *server) clusterLocalStatus() string {
	if s.leaving.Load() {
		return "leaving"
	}
	if s.gate.Stats().Draining {
		return "draining"
	}
	return "ok"
}

// --- adoption (successor side) ---

// adoptJob is the cluster's Adopt callback: a peer died and this
// node is the acting owner of one of its journaled-pending jobs.
// Runs the job through the exact path a live request would take
// (prepare → simulateSpec), so a client retry arriving mid-adoption
// coalesces with it on the engine; warm and replica copies are
// preferred over recomputing.
func (s *server) adoptJob(job cluster.Job, from string, epoch uint64) {
	go func() {
		defer s.keys.enter(job.AKey, phaseAdopting)()
		ctx := context.Background()
		if _, ok := s.workload(job.Bench); !ok || !slices.Contains(tlssync.PolicyLabels, job.Label) {
			s.cfg.logf("tlsd: cluster: cannot adopt %s from %s: bench %q / policy %q not servable here",
				job.Key, from, job.Bench, job.Label)
			return
		}
		if _, ok := s.store.Get(job.AKey); ok {
			s.cluster.MarkAdoptionDone(job.Key)
			s.cfg.logf("tlsd: cluster: adopted %s from %s@%d warm (artifact already here)", job.Key, from, epoch)
			return
		}
		// Last-resort pull: the "dead" owner may be alive but wedged past
		// DeadAfter with the artifact already committed — a probe to it
		// succeeds, and to a truly dead peer fails fast.
		if data, ok := s.cluster.PullAny(ctx, job.AKey); ok && json.Valid(data) {
			s.store.Put(job.AKey, data)
			s.cluster.MarkAdoptionDone(job.Key)
			s.cfg.logf("tlsd: cluster: adopted %s from %s@%d via replica pull", job.Key, from, epoch)
			return
		}
		run, err := s.run(ctx, job.Bench)
		if err != nil {
			s.cfg.logf("tlsd: cluster: adoption of %s failed to prepare: %v", job.Key, err)
			return
		}
		if _, err := s.simulateSpec(ctx, run, job.Bench, job.Label); err != nil {
			if errors.Is(err, errArtifactLanded) {
				s.cluster.MarkAdoptionDone(job.Key)
				s.cfg.logf("tlsd: cluster: adopted %s from %s@%d warm (artifact landed while queued)", job.Key, from, epoch)
				return
			}
			if errors.Is(err, errComputingElsewhere) && s.waitArtifactElsewhere(job.AKey) {
				s.cluster.MarkAdoptionDone(job.Key)
				s.cfg.logf("tlsd: cluster: adopted %s from %s@%d by waiting out a chain peer's execution", job.Key, from, epoch)
				return
			}
			s.cfg.logf("tlsd: cluster: adoption of %s failed: %v", job.Key, err)
			return
		}
		s.cluster.MarkAdoptionDone(job.Key)
		s.cfg.logf("tlsd: cluster: adopted %s (bench %s, policy %s) from dead %s@%d", job.Key, job.Bench, job.Label, from, epoch)
	}()
}

// resumeAdoptions finishes adoption records reloaded from a previous
// incarnation that never completed — this node was itself killed or
// rolled mid-adoption. The persisted record fences the original
// owner's journal entry away, so nobody else will run that job: the
// restarted adopter must, or the job is lost. Before re-executing,
// wait for the artifact to surface elsewhere on the chain (a peer may
// have computed it as acting owner while this node was down, or be
// mid-execution right now); only a job nobody else has or is
// producing re-runs, through the same path a fresh adoption takes.
func (s *server) resumeAdoptions() {
	var todo []cluster.Adoption
	for _, a := range s.cluster.Adoptions("") {
		if !a.Done {
			todo = append(todo, a)
		}
	}
	if len(todo) == 0 {
		return
	}
	go func() {
		for _, a := range todo {
			s.cfg.logf("tlsd: cluster: resuming unfinished adoption of %s (from %s@%d) after restart",
				a.Key, a.From, a.Epoch)
			if s.waitArtifactElsewhere(a.AKey) {
				s.cluster.MarkAdoptionDone(a.Key)
				continue
			}
			s.adoptJob(a.Job, a.From, a.Epoch)
		}
	}()
}

// recoverFenced is cluster-mode journal recovery: before re-running
// anything, ask the peers which pending keys were adopted from a
// previous incarnation of this node and commit those away — the
// adopter owns them now. Everything else recovers exactly as in the
// single-node path.
func (s *server) recoverFenced(jobs []recoverable) {
	ctx, cancel := context.WithTimeout(context.Background(), fenceTimeout)
	fenced, silent := s.cluster.FencedKeys(ctx)
	cancel()
	for _, j := range jobs {
		if ad, ok := fenced[j.rec.Key]; ok {
			s.journalCommit(j.rec.Key)
			s.eng.NoteRecovered()
			akey := tlssync.WorkloadArtifactKey("simulate", j.w, j.rec.Label)
			if _, have := s.store.Get(akey); !have {
				s.keys.fence(akey, ad.Adopter, time.Now().Add(adoptedAwayTTL))
			}
			s.cfg.logf("tlsd: cluster: journal entry %s fenced (adopted by %s at epoch %d < %d); not re-running",
				j.rec.Key, ad.Adopter, ad.Epoch, s.cluster.Epoch())
			continue
		}
		if len(silent) > 0 {
			// Fail-open: a silent peer may hold an adoption record we never
			// saw, so this key recovers without a fence verdict. Name it —
			// this line is the audit trail if a double-run is suspected.
			s.cfg.logf("tlsd: cluster: journal entry %s NOT fenced (peer(s) %v never answered the fence query); re-running — audit for double-run",
				j.rec.Key, silent)
		}
		go s.recoverJobCluster(j)
	}
}

// recoverQuietWait is how long a recovering job keeps checking for
// the artifact after the chain last reported the key in flight
// anywhere, before concluding nobody else will produce it. The wait
// extends as long as a chain member is queued on or executing the key
// — under heavy load (race-enabled binaries, deep admission queues) a
// single execution can take tens of seconds, and giving up early is
// exactly what double-runs work.
const recoverQuietWait = 2 * time.Second

// recoverInflightCap is the hard ceiling on one waitArtifactElsewhere
// call — a backstop against a peer that reports the key in flight
// forever (it would otherwise pin the waiter for the process
// lifetime). The late guard in simulateSpec keeps even a post-cap
// re-run from double-executing.
const recoverInflightCap = 2 * time.Minute

// errArtifactLanded: the engine job found the artifact already in the
// local store when its turn to execute came — a chain peer computed
// it (and replicated it here) while this job sat in the admission or
// engine queue. The intent is committed; the caller serves the
// landed artifact instead of a fresh result.
var errArtifactLanded = errors.New("artifact landed while queued (computed by a chain peer)")

// errComputingElsewhere: when this job's turn came, a chain peer's
// execution of the same key had already started. Running here too
// would be the double-compute the counters catch, so the job defers:
// the intent is committed, and the caller either waits the peer out
// (recovery, adoption) or answers 503 so the client's retry joins the
// peer's execution by proxy (the normal request path).
var errComputingElsewhere = errors.New("key is executing on a chain peer")

// chainPeers lists the other members of akey's replica chain. The
// previous owner of a key is by construction the next chain successor,
// so probing Replicas+1 members covers a rebalance mid-execution.
func (s *server) chainPeers(akey string) []string {
	return slices.DeleteFunc(s.cluster.Ring().Successors(akey, s.cluster.Replicas()+1),
		func(id string) bool { return id == s.cluster.Self() })
}

// chainInflight reports whether another chain member has akey queued
// or adopting, or with runningOnly, executing (the cross-node
// singleflight probe; see phaseRunning for why the late guard asks
// only for started executions).
func (s *server) chainInflight(akey string, runningOnly bool) bool {
	for _, id := range s.chainPeers(akey) {
		if s.cluster.InflightAt(id, akey, runningOnly) {
			return true
		}
	}
	return false
}

// waitArtifactElsewhere tries to obtain akey without executing it:
// the local store, a last-resort replica pull off the chain (PullAny,
// because the peer holding the artifact may be alive but flagged dead
// by a twitchy detector), and waiting out any chain member's in-flight
// work on the same key. Reports whether the artifact is now local. The
// quiet window restarts every time the chain reports the key in
// flight, so the wait tracks real progress at the peer (however slow)
// and expires only after the chain has been quiet for
// recoverQuietWait — which also covers the first heartbeat rounds
// after boot, before gossip has taught this node its peers' URLs (a
// pull can only probe peers it has an address for).
func (s *server) waitArtifactElsewhere(akey string) bool {
	heartbeat := 500 * time.Millisecond
	if s.cfg.cluster != nil && s.cfg.cluster.heartbeat > 0 {
		heartbeat = s.cfg.cluster.heartbeat
	}
	quiet := 3 * heartbeat
	if quiet < recoverQuietWait {
		quiet = recoverQuietWait
	}
	start := time.Now()
	lastActive := start
	for {
		if _, ok := s.store.Get(akey); ok {
			return true
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		data, ok := s.cluster.PullAny(ctx, akey)
		cancel()
		if ok && json.Valid(data) {
			s.store.Put(akey, data)
			s.cfg.logf("tlsd: cluster: %s obtained via replica pull (computed elsewhere while this node was down)", akey)
			return true
		}
		if s.chainInflight(akey, false) {
			lastActive = time.Now()
		}
		now := time.Now()
		if now.Sub(lastActive) > quiet || now.Sub(start) > recoverInflightCap {
			return false
		}
		time.Sleep(150 * time.Millisecond)
	}
}

// recoverJobCluster completes one non-fenced pending job in cluster
// mode. The fence only protects entries a peer ADOPTED; it cannot see
// an entry a live peer computed as acting owner while this node was
// down (client retries route to the first alive successor, which runs
// the job with no adoption record — nothing to fence). So before
// re-executing, look for that computation elsewhere on the chain;
// recoverJob then commits a found artifact warm, and re-runs only
// when nobody else has it or is producing it.
func (s *server) recoverJobCluster(j recoverable) {
	s.waitArtifactElsewhere(tlssync.WorkloadArtifactKey("simulate", j.w, j.rec.Label))
	s.recoverJob(j.rec, j.w)
}

// --- routing (request path) ---

// shedCluster answers 503 + Retry-After 1: "a retry will land
// somewhere that can serve this" — cluster topology is converging
// (no quorum, views disagree, owner unreachable), not failing.
func (s *server) shedCluster(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": msg})
}

// routeSimulate decides where a cold /simulate for akey runs.
// Returns true when it wrote the response (proxied or shed); false
// means "compute locally" and the caller proceeds down the normal
// admission → prepare → simulate path.
func (s *server) routeSimulate(w http.ResponseWriter, r *http.Request, akey string) bool {
	if r.Header.Get(peerHeader) != "" {
		// Forwarded by a peer. Serve locally iff this node considers
		// itself responsible (acting owner, or mid-adoption of exactly
		// this key); otherwise shed — forwarded requests are never
		// re-forwarded, so disagreeing ring views cannot loop.
		if err := s.fireCluster("cluster.in"); err != nil {
			s.shedCluster(w, "cluster fault injected")
			return true
		}
		if s.keys.get(akey).inflight(false) {
			// Mid-adoption or mid-execution of exactly this key: serve
			// locally and coalesce on the engine, even if a membership
			// change moved ownership away mid-flight.
			return false
		}
		owner, ok := s.cluster.Route(akey)
		if ok && owner == s.cluster.Self() {
			return false
		}
		s.shedCluster(w, "not the acting owner of this key (ring views converging)")
		return true
	}

	owner, ok := s.cluster.Route(akey)
	if !ok {
		// Fail closed on a minority side: the majority is still serving
		// this key; running it here too would double-compute.
		s.shedCluster(w, "no cluster quorum")
		return true
	}
	if owner != s.cluster.Self() {
		if s.proxySimulate(w, r, owner, akey) {
			return true
		}
		s.shedCluster(w, "key owner "+owner+" unreachable")
		return true
	}

	// This node is the acting owner. If a peer adopted this key while
	// we were down and is still working on it, defer to the adopter
	// (proxy joins its in-flight execution) rather than starting a
	// second one.
	adopter := s.keys.get(akey).adopter
	away := adopter != ""
	if away {
		if alive := s.cluster.PeerURL(adopter) != ""; alive && s.proxySimulate(w, r, adopter, akey) {
			return true
		}
	}
	// Pull-on-miss: a replica may already hold the artifact (computed
	// while this node was down, or pushed by a successor). Cheap when
	// cold everywhere — peers answer 404 from their stores.
	if data, ok := s.cluster.Pull(r.Context(), akey); ok && json.Valid(data) {
		s.store.Put(akey, data)
		w.Header().Set("X-Tlsd-Cache", "peer")
		s.writeJSON(w, http.StatusOK, map[string]any{"cache": "peer", "result": json.RawMessage(data)})
		return true
	}
	// Cross-node singleflight: this node may have become the owner
	// mid-execution elsewhere (a join shifted the ring while the
	// previous owner was computing). Before paying for a second
	// execution, ask the other chain members whether the key is in
	// flight there and join that execution by proxy.
	for _, id := range s.chainPeers(akey) {
		if s.cluster.InflightAt(id, akey, false) && s.proxySimulate(w, r, id, akey) {
			return true
		}
	}
	if away {
		// The adopter is unreachable — dead, partitioned, or the cluster
		// breaker is open — and the key is cold everywhere we can see.
		// Its adoption record fenced our journal entry: the adopter owns
		// this execution, and running it here anyway is exactly the
		// double-compute the fence exists to prevent. Try one last-resort
		// pull (the adopter may be alive-but-flagged-dead with the
		// artifact already committed), then fail closed: shed, and let
		// the client's retry find the adopter back up or the artifact
		// replicated. The adopted-away TTL bounds how long an adopter
		// that died mid-execution can wedge the key.
		if data, ok := s.cluster.PullAny(r.Context(), akey); ok && json.Valid(data) {
			s.store.Put(akey, data)
			s.keys.unfence(akey)
			w.Header().Set("X-Tlsd-Cache", "peer")
			s.writeJSON(w, http.StatusOK, map[string]any{"cache": "peer", "result": json.RawMessage(data)})
			return true
		}
		s.shedCluster(w, "key adopted by "+adopter+"; awaiting its execution")
		return true
	}
	return false
}

// proxySimulate forwards the request to target and relays the
// answer. Returns false only when no response was obtained (caller
// sheds); relayed non-200s (429 backpressure, 503 drain/shed, 502
// breaker) return true — the owner's answer IS the answer, and the
// client's retry policy reads the relayed Retry-After.
func (s *server) proxySimulate(w http.ResponseWriter, r *http.Request, target, akey string) bool {
	base := s.cluster.PeerURL(target)
	if base == "" {
		return false
	}
	if err := s.fireCluster("cluster.out"); err != nil {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), "GET", base+"/simulate?"+r.URL.RawQuery, nil)
	if err != nil {
		return false
	}
	req.Header.Set(peerHeader, s.cluster.Self())
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return false
	}
	if resp.StatusCode != http.StatusOK {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return true
	}
	// Cache the artifact locally so the next request for this key is a
	// warm hit here. The served body is indented JSON; the store holds
	// canonical compact bytes, so compact before Put (content
	// addressing makes any byte-identical copy interchangeable).
	var payload struct {
		Result json.RawMessage `json:"result"`
	}
	if json.Unmarshal(body, &payload) == nil && len(payload.Result) > 0 {
		var buf bytes.Buffer
		if json.Compact(&buf, payload.Result) == nil {
			s.store.Put(akey, buf.Bytes())
			s.keys.unfence(akey)
		}
	}
	w.Header().Set("X-Tlsd-Cache", "peer")
	s.writeJSON(w, http.StatusOK, map[string]any{"cache": "peer", "result": payload.Result})
	return true
}

// --- /cluster endpoints ---

// handleCluster is the operator view: membership, ring parameters,
// quorum, per-peer liveness, adoptions, and this node's per-key
// execution counters (the evidence the chaos scenarios aggregate to
// prove zero lost and zero double-executed jobs).
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var pending int
	if s.journal != nil {
		pending = len(s.journal.Pending())
	}
	keys := s.store.Keys()
	sort.Strings(keys)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"cluster":         s.cluster.StatusNow(),
		"executions":      s.keys.executions(),
		"journal_pending": pending,
		"store_keys":      keys,
	})
}

// handleClusterHeartbeat answers the failure detector's probe.
func (s *server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.cluster.HeartbeatPayload())
}

// handleClusterArtifact serves (GET) and accepts (POST) raw artifact
// bytes for replication. Artifacts are immutable and content-
// addressed, so a POST of a key that already exists is a no-op and
// there is nothing to version or reconcile.
func (s *server) handleClusterArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		s.writeError(w, errBadRequest("need a key query parameter"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := s.store.Get(key)
		if !ok {
			s.writeError(w, errNotFound("artifact %q not on this node", key))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case http.MethodPost:
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil || !json.Valid(data) {
			s.writeError(w, errBadRequest("replica push body is not valid JSON"))
			return
		}
		s.store.Put(key, data)
		s.keys.unfence(key)
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
	default:
		s.writeError(w, &httpError{http.StatusMethodNotAllowed, "GET or POST only"})
	}
}

// handleClusterAdoptions answers the reboot fence query: which jobs
// did THIS node adopt, optionally filtered to ?from=<dead-node-id>.
// Each record names this node as the adopter so the rebooted node
// knows where its keys went.
func (s *server) handleClusterAdoptions(w http.ResponseWriter, r *http.Request) {
	ads := s.cluster.Adoptions(r.URL.Query().Get("from"))
	for i := range ads {
		ads[i].Adopter = s.cluster.Self()
	}
	if ads == nil {
		ads = []cluster.Adoption{}
	}
	s.writeJSON(w, http.StatusOK, ads)
}

// handleClusterJoin admits a new member: the joiner POSTs its id and
// advertised URL, this node bumps the member epoch, and the answer is
// the authoritative new view the joiner boots from. The rest of the
// fleet learns the view by broadcast (backgrounded here) with
// heartbeat gossip as the safety net.
func (s *server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Node string `json:"node"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Node == "" {
		s.writeError(w, errBadRequest("join body must be {\"node\": id, \"url\": base-url}"))
		return
	}
	view, err := s.cluster.ApplyJoin(req.Node, req.URL)
	if err != nil {
		s.writeError(w, errBadRequest("%v", err))
		return
	}
	s.cfg.logf("tlsd: cluster: %s joined (member epoch %d, %d members)", req.Node, view.MemberEpoch, len(view.Members))
	go s.cluster.BroadcastView(view)
	s.writeJSON(w, http.StatusOK, view)
}

// handleClusterMembers folds a broadcast member-set view (from a join
// coordinator or a decommissioning node) into local state.
func (s *server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	var v cluster.MemberView
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&v); err != nil {
		s.writeError(w, errBadRequest("member view body is not valid JSON"))
		return
	}
	applied := s.cluster.ApplyMembers(v.MemberEpoch, v.Members, v.URLs)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"applied":      applied,
		"member_epoch": s.cluster.MemberEpoch(),
	})
}

// handleClusterDecommission removes THIS node from the cluster: drain
// the journaled-pending backlog (409 if it will not drain — a
// decommission must never orphan begun work), hand every local
// artifact to the replica chains of the post-departure ring, remove
// self from the member set, and broadcast the new view. The process
// keeps serving (warm hits locally, cold work proxied to the new
// owners) until the supervisor stops it.
func (s *server) handleClusterDecommission(w http.ResponseWriter, r *http.Request) {
	if !s.leaving.CompareAndSwap(false, true) {
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "already leaving"})
		return
	}
	deadline := time.Now().Add(decommissionDrain)
	for len(s.clusterPending()) > 0 && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			s.leaving.Store(false)
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
	if n := len(s.clusterPending()); n > 0 {
		s.leaving.Store(false)
		s.writeJSON(w, http.StatusConflict, map[string]any{
			"error":   fmt.Sprintf("%d journaled job(s) still pending after %v; not decommissioning", n, decommissionDrain),
			"pending": n,
		})
		return
	}
	pushed, failed := s.cluster.DecommissionHandoff()
	view, err := s.cluster.Leave()
	if err != nil {
		s.leaving.Store(false)
		s.writeError(w, errBadRequest("%v", err))
		return
	}
	acked := s.cluster.BroadcastView(view)
	s.cfg.logf("tlsd: cluster: decommissioned self (member epoch %d, handoff %d pushed / %d failed, view acked by %d peer(s))",
		view.MemberEpoch, pushed, failed, acked)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":          "decommissioned",
		"member_epoch":    view.MemberEpoch,
		"members":         view.Members,
		"handoff_pushed":  pushed,
		"handoff_failed":  failed,
		"broadcast_acked": acked,
	})
}

// handleClusterDigest answers the anti-entropy key digest: every
// artifact key this node holds, sorted.
func (s *server) handleClusterDigest(w http.ResponseWriter, r *http.Request) {
	keys := s.store.Keys()
	sort.Strings(keys)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"node": s.cluster.Self(),
		"keys": keys,
	})
}

// handleClusterInflight answers the cross-node singleflight probe: is
// this node currently working on (or adopting) the given artifact
// key? The default answer covers queued work too (phaseQueued spans
// the engine queue); `exec=1` narrows it to executions whose
// simulation has actually started — what the late guard in
// simulateSpec needs (see phaseRunning).
func (s *server) handleClusterInflight(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		s.writeError(w, errBadRequest("need a key query parameter"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"computing": s.keys.get(key).inflight(r.URL.Query().Get("exec") != ""),
	})
}

// registerClusterHandlers mounts the /cluster surface on the mux.
// Peer traffic (every /cluster/* route) passes the inbound cluster
// fault point first, so an injected partition severs it; the operator
// view GET /cluster does not.
func (s *server) registerClusterHandlers() {
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /cluster/heartbeat":     s.handleClusterHeartbeat,
		"GET /cluster/artifact":      s.handleClusterArtifact,
		"POST /cluster/artifact":     s.handleClusterArtifact,
		"GET /cluster/adoptions":     s.handleClusterAdoptions,
		"POST /cluster/join":         s.handleClusterJoin,
		"POST /cluster/members":      s.handleClusterMembers,
		"POST /cluster/decommission": s.handleClusterDecommission,
		"GET /cluster/digest":        s.handleClusterDigest,
		"GET /cluster/inflight":      s.handleClusterInflight,
	} {
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if err := s.fireCluster("cluster.in"); err != nil {
				s.shedCluster(w, "cluster fault injected")
				return
			}
			h(w, r)
		})
	}
}

// newCluster builds the cluster layer for a server from the parsed
// flags. Called from newServer before journal recovery (recovery
// needs the fence query) and before the mux is finalized.
func (s *server) newCluster(cc *clusterConfig) error {
	epoch := uint64(1)
	if s.cfg.cacheDir != "" {
		var err error
		if epoch, err = bumpEpoch(s.fs(), s.cfg.cacheDir); err != nil {
			return fmt.Errorf("cluster epoch: %w", err)
		}
	} else {
		s.cfg.logf("tlsd: cluster: memory-only (no -cachedir): epoch fencing and job adoption need a journal")
	}
	var fire func(string) error
	if s.cfg.faults != nil {
		reg := s.cfg.faults
		fire = func(point string) error { return reg.Fire(point) }
	}
	membersFile, adoptionsFile := "", ""
	if s.cfg.cacheDir != "" {
		membersFile = filepath.Join(s.cfg.cacheDir, "cluster", "members")
		adoptionsFile = filepath.Join(s.cfg.cacheDir, "cluster", "adoptions")
	}
	cl, err := cluster.New(cluster.Config{
		Self:           cc.nodeID,
		Nodes:          cc.nodes,
		URLs:           cc.urls,
		SelfURL:        cc.selfURL,
		MemberEpoch:    cc.memberEpoch,
		MembersFile:    membersFile,
		AdoptionsFile:  adoptionsFile,
		PeersFile:      cc.peersFile,
		Replicas:       cc.replicas,
		Epoch:          epoch,
		FS:             s.fs(),
		HeartbeatEvery: cc.heartbeat,
		DeadAfter:      cc.deadAfter,
		SweepEvery:     cc.sweep,
		Logf:           s.cfg.logf,
		Fire:           fire,
		LocalPending:   s.clusterPending,
		LocalStatus:    s.clusterLocalStatus,
		Adopt:          s.adoptJob,
		LocalKeys:      s.store.Keys,
		LocalGet:       s.store.Get,
		StoreLocal: func(key string, data []byte) error {
			if !json.Valid(data) {
				return fmt.Errorf("pulled artifact %q is not valid JSON", key)
			}
			s.store.Put(key, data)
			s.keys.unfence(key)
			s.cluster.MarkAdoptionDone(key)
			return nil
		},
	})
	if err != nil {
		return err
	}
	s.cluster = cl
	// The proxy client carries whole simulations; the request context
	// (per-request deadline) bounds it, not a transport timeout.
	s.proxyClient = &http.Client{}
	return nil
}
