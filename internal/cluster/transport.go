package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"
)

// ReplicaSet returns the peers (never self) that should hold a copy
// of akey: the first Replicas ring successors after the owner chain
// position of this node's copy. The owner itself is included when it
// is not self — replication is called by whichever node computed the
// artifact, which during failover may be a successor pushing back
// toward the (future, rebooted) owner's replicas.
func (c *Cluster) ReplicaSet(akey string) []string {
	c.mu.Lock()
	chain := c.ring.Successors(akey, c.cfg.Replicas+1)
	c.mu.Unlock()
	out := make([]string, 0, len(chain))
	for _, id := range chain {
		if id != c.cfg.Self {
			out = append(out, id)
		}
	}
	return out
}

// ReplicateAsync queues a committed artifact for push to the key's
// replica set. The queue is bounded: when it is full the push is
// dropped and accounted (replication_dropped), never blocking the
// commit path — and the anti-entropy sweeper repairs the hole within
// one sweep. Push targets are resolved at send time, so a push queued
// mid-rebalance lands on the live chain.
func (c *Cluster) ReplicateAsync(akey string, data []byte) {
	body := append([]byte(nil), data...) // detach from the caller's buffer
	select {
	case c.sendQ <- repTask{akey: akey, data: body}:
		c.mu.Lock()
		c.ctr.repQueued++
		c.mu.Unlock()
	default:
		c.mu.Lock()
		c.ctr.repDropped++
		n := c.ctr.repDropped
		c.mu.Unlock()
		if n == 1 || n%100 == 0 {
			c.cfg.Logf("cluster: replication queue full — %d push(es) dropped (anti-entropy will repair)", n)
		}
	}
}

// senderLoop is one bounded replication worker: it drains the queue,
// pushes each artifact to its current replica set, and retries a
// failed push once after a short backoff (a restarting peer usually
// answers the second attempt). Terminal failures are accounted and
// left to the sweeper.
func (c *Cluster) senderLoop() {
	defer c.senderWG.Done()
	for {
		select {
		case <-c.stop:
			return
		case t := <-c.sendQ:
			for _, id := range c.ReplicaSet(t.akey) {
				u := c.PeerURL(id)
				if u == "" {
					continue
				}
				err := c.pushArtifact(u, t.akey, t.data)
				if err != nil {
					select {
					case <-c.stop:
						return
					case <-time.After(100 * time.Millisecond):
					}
					if u = c.PeerURL(id); u != "" {
						err = c.pushArtifact(u, t.akey, t.data)
					}
				}
				c.mu.Lock()
				if err != nil {
					c.ctr.repFailed++
				} else {
					c.ctr.repPushed++
				}
				c.mu.Unlock()
				if err != nil {
					c.cfg.Logf("cluster: replicate %s → %s: %v", t.akey, id, err)
				}
			}
		}
	}
}

func (c *Cluster) pushArtifact(base, akey string, data []byte) error {
	if err := c.fire(); err != nil {
		return err
	}
	resp, err := c.cfg.Client.Post(base+"/cluster/artifact?key="+url.QueryEscape(akey),
		"application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// Pull fetches akey from the first replica that has it, walking the
// *live* ring's successor chain (the member set may have changed
// since boot), skipping self and dead peers. ok=false means no
// reachable replica holds the artifact — the caller computes it.
func (c *Cluster) Pull(ctx context.Context, akey string) ([]byte, bool) {
	return c.pull(ctx, akey, false)
}

// PullAny is the last-resort form of Pull: it also probes chain
// members currently flagged dead. The failure detector can be wrong
// under load — a wedged-but-alive peer misses heartbeats past
// DeadAfter while holding a committed artifact — and a probe to it
// succeeds, while a probe to a truly dead peer fails fast with
// connection refused. Reserved for recovery paths that are about to
// pay for a re-execution: the callers for whom a false miss is the
// expensive outcome.
func (c *Cluster) PullAny(ctx context.Context, akey string) ([]byte, bool) {
	return c.pull(ctx, akey, true)
}

func (c *Cluster) pull(ctx context.Context, akey string, includeDead bool) ([]byte, bool) {
	c.mu.Lock()
	chain := c.ring.Successors(akey, len(c.members))
	c.mu.Unlock()
	for _, id := range chain {
		if id == c.cfg.Self {
			continue
		}
		c.mu.Lock()
		p, ok := c.peers[id]
		reachable := ok && (p.alive || includeDead) && p.url != ""
		base := ""
		if ok {
			base = p.url
		}
		c.mu.Unlock()
		if !reachable {
			continue
		}
		data, err := c.pullArtifact(ctx, base, akey)
		if err != nil {
			continue // miss or fault — try the next replica
		}
		return data, true
	}
	return nil, false
}

func (c *Cluster) pullArtifact(ctx context.Context, base, akey string) ([]byte, error) {
	if err := c.fire(); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "GET",
		base+"/cluster/artifact?key="+url.QueryEscape(akey), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// FencedKeys implements the reboot side of epoch fencing: it asks
// every reachable peer which of this node's journal keys were
// adopted at an epoch below the current one, retrying until the
// context expires. The caller (journal recovery) commits those keys
// away instead of re-running them.
//
// Best-effort by design: if not every peer answers before the
// deadline, recovery proceeds on partial (or no) answers — jobs may
// re-run, which wastes cycles but cannot corrupt anything (immutable
// store) and is the correct fail-open choice for a node booting into
// a dead or partitioned cluster. The returned silent list names the
// peers that never answered, so the caller can log exactly which
// journal keys recovered without a fence verdict — the audit trail
// for a suspected double-run.
func (c *Cluster) FencedKeys(ctx context.Context) (map[string]Adoption, []string) {
	fenced := make(map[string]Adoption)
	answered := make(map[string]bool)
	for {
		type target struct{ id, url string }
		c.mu.Lock()
		var targets []target
		for _, p := range c.peers {
			if p.url != "" && !answered[p.id] {
				targets = append(targets, target{p.id, p.url})
			}
		}
		c.mu.Unlock()
		for _, t := range targets {
			ads, err := c.fetchAdoptions(ctx, t.url)
			if err != nil {
				continue
			}
			answered[t.id] = true
			for _, a := range ads {
				if a.From == c.cfg.Self && a.Epoch < c.cfg.Epoch {
					fenced[a.Key] = a
				}
			}
		}
		c.mu.Lock()
		var silent []string
		for _, p := range c.peers {
			if !answered[p.id] {
				silent = append(silent, p.id)
			}
		}
		c.mu.Unlock()
		if len(silent) == 0 {
			return fenced, nil
		}
		select {
		case <-ctx.Done():
			sort.Strings(silent)
			if len(answered) == 0 {
				c.cfg.Logf("cluster: fence query: no peer answered — recovering un-fenced")
			} else {
				c.cfg.Logf("cluster: fence query: %d peer(s) silent (%v) — fencing on partial answers",
					len(silent), silent)
			}
			return fenced, silent
		case <-time.After(100 * time.Millisecond):
			c.reloadPeersFile() // a peer may have just published its port
		}
	}
}

// DecommissionHandoff pushes every local artifact to the replica
// chain it will belong to once this node has left the ring: the
// departure ring is the member set minus self. Called by the
// decommission handler after the journal backlog drains and before
// Leave — so by the time the survivors learn the new member set, the
// data is already where the new ring says it lives. Best-effort per
// key (failures counted; anti-entropy on the survivors repairs the
// rest), synchronous on purpose: the process exits right after.
func (c *Cluster) DecommissionHandoff() (pushed, failed int) {
	if c.cfg.LocalKeys == nil {
		return 0, 0
	}
	c.mu.Lock()
	var rest []string
	for _, m := range c.members {
		if m != c.cfg.Self {
			rest = append(rest, m)
		}
	}
	c.mu.Unlock()
	if len(rest) == 0 {
		return 0, 0
	}
	departed := NewRing(rest, c.cfg.VNodes)
	for _, k := range c.cfg.LocalKeys() {
		data, ok := c.localGet(k)
		if !ok {
			continue
		}
		for _, id := range departed.Successors(k, c.cfg.Replicas+1) {
			u := c.PeerURL(id)
			if u == "" {
				failed++
				continue
			}
			if err := c.pushArtifact(u, k, data); err != nil {
				failed++
				c.cfg.Logf("cluster: handoff %s → %s: %v", k, id, err)
				continue
			}
			pushed++
		}
	}
	return pushed, failed
}

// BroadcastView POSTs a member-set view to every known peer and
// reports how many acknowledged. Gossip would spread the view anyway
// within a probe period; the decommission path broadcasts actively
// because the sender is about to exit and cannot rely on answering
// further probes.
func (c *Cluster) BroadcastView(v MemberView) int {
	c.mu.Lock()
	type target struct{ id, url string }
	var targets []target
	for _, p := range c.peers {
		if p.url != "" {
			targets = append(targets, target{p.id, p.url})
		}
	}
	c.mu.Unlock()
	body, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	acked := 0
	for _, t := range targets {
		if err := c.fire(); err != nil {
			continue
		}
		resp, err := c.cfg.Client.Post(t.url+"/cluster/members", "application/json", bytes.NewReader(body))
		if err != nil {
			c.cfg.Logf("cluster: member broadcast → %s: %v", t.id, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 200 {
			acked++
		}
	}
	return acked
}

// InflightAt asks one peer whether it is currently computing (or
// adopting) akey — the cross-node singleflight probe. With
// runningOnly (`exec=1`) only an execution that has actually started
// at the peer counts, not work the peer merely holds in a queue:
// queued work must not make two nodes defer to each other. false on
// any error: the caller computes locally, which is always safe.
func (c *Cluster) InflightAt(id, akey string, runningOnly bool) bool {
	base := c.PeerURL(id)
	if base == "" {
		return false
	}
	if err := c.fire(); err != nil {
		return false
	}
	q := "/cluster/inflight?key=" + url.QueryEscape(akey)
	if runningOnly {
		q += "&exec=1"
	}
	resp, err := c.cfg.Client.Get(base + q)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	var ans struct {
		Computing bool `json:"computing"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ans); err != nil {
		return false
	}
	return ans.Computing
}

func (c *Cluster) fetchAdoptions(ctx context.Context, base string) ([]Adoption, error) {
	if err := c.fire(); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "GET",
		base+"/cluster/adoptions?from="+url.QueryEscape(c.cfg.Self), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var ads []Adoption
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&ads); err != nil {
		return nil, err
	}
	return ads, nil
}

// PeerStatus is one row of the /cluster status answer.
type PeerStatus struct {
	ID     string `json:"id"`
	URL    string `json:"url,omitempty"`
	Alive  bool   `json:"alive"`
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch,omitempty"`
	// AgoMS is milliseconds since the last successful heartbeat
	// (-1: never heard from).
	AgoMS   int64 `json:"last_heartbeat_ms,omitempty"`
	Pending int   `json:"pending,omitempty"`
}

// Status is the cluster section of the daemon's observability
// answers (/cluster, /readyz, /stats).
type Status struct {
	Self        string           `json:"self"`
	Epoch       uint64           `json:"epoch"`
	MemberEpoch uint64           `json:"member_epoch"`
	Nodes       []string         `json:"nodes"`
	VNodes      int              `json:"vnodes"`
	Replicas    int              `json:"replicas"`
	Quorum      bool             `json:"quorum"`
	Alive       int              `json:"alive"`
	Peers       []PeerStatus     `json:"peers"`
	Adoptions   []Adoption       `json:"adoptions,omitempty"`
	Rebalances  int64            `json:"rebalances"`
	Replication map[string]int64 `json:"replication"`
	AntiEntropy map[string]int64 `json:"anti_entropy"`
}

// StatusNow snapshots the cluster view.
func (c *Cluster) StatusNow() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Self:        c.cfg.Self,
		Epoch:       c.cfg.Epoch,
		MemberEpoch: c.memberEpoch,
		Nodes:       c.ring.Nodes(),
		VNodes:      c.ring.vnodes,
		Replicas:    c.cfg.Replicas,
		Quorum:      c.quorumLocked(),
		Rebalances:  c.ctr.rebalances,
		Replication: map[string]int64{
			"pushed":  c.ctr.repPushed,
			"failed":  c.ctr.repFailed,
			"queued":  c.ctr.repQueued,
			"dropped": c.ctr.repDropped,
		},
		AntiEntropy: map[string]int64{
			"sweeps":        c.ctr.sweeps,
			"repair_pushed": c.ctr.repairPushed,
			"repair_pulled": c.ctr.repairPulled,
			"errors":        c.ctr.sweepErrors,
		},
	}
	for _, id := range c.members {
		if c.aliveLocked(id) {
			st.Alive++
		}
	}
	for _, p := range c.peers {
		status := p.status
		if p.suspect {
			status = "suspect"
		}
		ps := PeerStatus{ID: p.id, URL: p.url, Alive: p.alive, Status: status, Epoch: p.epoch, Pending: len(p.pending)}
		if p.everSeen {
			ps.AgoMS = c.now().Sub(p.lastOK).Milliseconds()
		} else {
			ps.AgoMS = -1
		}
		st.Peers = append(st.Peers, ps)
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].ID < st.Peers[j].ID })
	st.Adoptions = append(st.Adoptions, c.adoptions...)
	return st
}
