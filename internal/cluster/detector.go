package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"tlssync/internal/store"
)

// detectorLoop is the failure detector: every HeartbeatEvery it
// re-reads the peers file (ports change when tlssim restarts a
// node), probes every peer's /cluster/heartbeat in parallel, and
// declares peers dead after DeadAfter of silence. Death transitions
// trigger adoption of the dead node's last-gossiped pending jobs.
//
// Detection is pull-based on purpose: a node that cannot *answer*
// probes (wedged, partitioned, SIGKILLed) looks exactly like one
// that cannot send them, and pulling means the detector needs no
// listener of its own — the regular HTTP mux serves the heartbeat.
func (c *Cluster) detectorLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		c.reloadPeersFile()
		c.probeAll()
		c.sweepDead()
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
	}
}

// reloadPeersFile re-reads cfg.PeersFile when its mtime moved.
// Format: one "id url" pair per line; blank lines and # comments
// ignored. Every parsed address is retained (fileAddrs) even for ids
// that are not members yet: a later join can then resolve the new
// node's address without waiting for another file rewrite.
func (c *Cluster) reloadPeersFile() {
	if c.cfg.PeersFile == "" {
		return
	}
	fi, err := os.Stat(c.cfg.PeersFile)
	if err != nil {
		return // not written yet — fleet still starting
	}
	c.mu.Lock()
	unchanged := fi.ModTime().Equal(c.fileMtime)
	c.mu.Unlock()
	if unchanged {
		return
	}
	data, err := store.ReadFile(c.cfg.FS, c.cfg.PeersFile)
	if err != nil {
		return
	}
	addrs := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		url := strings.TrimSuffix(fields[1], "/")
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		addrs[fields[0]] = url
	}
	c.mu.Lock()
	c.fileMtime = fi.ModTime()
	for id, url := range addrs {
		c.fileAddrs[id] = url
		if p, ok := c.peers[id]; ok && p.url != url {
			c.cfg.Logf("cluster: peer %s now at %s", id, url)
			p.url = url
		}
	}
	c.mu.Unlock()
}

// probeAll heartbeats every addressable peer concurrently and waits
// for the round to finish (the HTTP client timeout bounds the wait,
// so a blackholed peer cannot stall the loop past it).
func (c *Cluster) probeAll() {
	// The URL is snapshotted with the peer: a peersfile reload, gossip
	// fill or view apply rewrites p.url under c.mu mid-round.
	type target struct {
		p   *peer
		url string
	}
	c.mu.Lock()
	targets := make([]target, 0, len(c.peers))
	for _, p := range c.peers {
		if p.url != "" {
			targets = append(targets, target{p, p.url})
		}
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			c.probe(t.p, t.url)
		}(t)
	}
	wg.Wait()
}

// probe fetches one peer's heartbeat and folds it into the view —
// liveness, pending gossip, and any strictly newer member-set view
// the peer has seen (how joins/decommissions reach nodes the direct
// broadcast missed).
func (c *Cluster) probe(p *peer, url string) {
	hb, err := c.fetchHeartbeat(p.id, url)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		return // sweepDead decides when silence becomes death
	}
	if p.everSeen && hb.Epoch > p.epoch {
		c.cfg.Logf("cluster: peer %s rebooted (epoch %d → %d)", p.id, p.epoch, hb.Epoch)
	}
	if !p.alive && p.everSeen {
		c.cfg.Logf("cluster: peer %s is back (epoch %d)", p.id, hb.Epoch)
	}
	if p.suspect {
		c.cfg.Logf("cluster: peer %s healthy again (was suspect)", p.id)
		p.suspect = false
	}
	p.everSeen = true
	p.alive = true
	p.lastOK = c.now()
	p.epoch = hb.Epoch
	p.status = hb.Status
	p.pending = hb.Pending
	if hb.MemberEpoch > c.memberEpoch {
		c.applyRemoteViewLocked(hb.MemberEpoch, hb.Members, hb.URLs)
	}
	// Gossiped addresses fill gaps only: the peersfile and explicit
	// SetPeerURL stay authoritative for nodes we can already reach.
	for id, url := range hb.URLs {
		if q, ok := c.peers[id]; ok && q.url == "" && url != "" {
			q.url = strings.TrimSuffix(url, "/")
		}
	}
}

func (c *Cluster) fetchHeartbeat(id, url string) (*Heartbeat, error) {
	if err := c.fire(); err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Get(url + "/cluster/heartbeat")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("heartbeat %s: status %d", id, resp.StatusCode)
	}
	var hb Heartbeat
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hb); err != nil {
		return nil, err
	}
	if hb.Node != id {
		// Port reuse can hand us a different daemon — never fold a
		// stranger's heartbeat into this peer's state.
		return nil, fmt.Errorf("heartbeat %s: answered by %q", id, hb.Node)
	}
	return &hb, nil
}

// sweepDead declares peers dead after DeadAfter of silence and, on
// each alive→dead transition, adopts the jobs this node is now the
// acting owner of.
func (c *Cluster) sweepDead() {
	type orphan struct {
		job   Job
		from  string
		epoch uint64
	}
	var orphans []orphan
	c.mu.Lock()
	now := c.now()
	for _, p := range c.peers {
		if !p.alive {
			continue
		}
		silent := now.Sub(p.lastOK)
		if silent <= c.cfg.DeadAfter {
			// Half the death budget spent → suspect: logged for the
			// operator, but still alive for routing, quorum, and adoption
			// purposes, so a jittered heartbeat cannot trigger a spurious
			// adoption (it must stay silent for the full DeadAfter).
			if !p.suspect && p.everSeen && silent > c.cfg.DeadAfter/2 {
				p.suspect = true
				c.cfg.Logf("cluster: peer %s suspect (silent %v of %v)",
					p.id, silent.Round(time.Millisecond), c.cfg.DeadAfter)
			}
			continue
		}
		p.alive = false
		p.suspect = false
		p.status = "dead"
		c.cfg.Logf("cluster: peer %s declared dead (silent %v, %d pending jobs gossiped)",
			p.id, silent.Round(time.Millisecond), len(p.pending))
		if !c.quorumLocked() {
			c.cfg.Logf("cluster: no quorum (%d/%d alive) — not adopting from %s",
				len(c.members)-c.deadCountLocked(), len(c.members), p.id)
			continue
		}
		for _, job := range p.pending {
			if c.adopted[job.Key] {
				continue
			}
			// Adopt only what this node is now acting owner of; the
			// other survivors run the same rule over the same gossip, so
			// each orphan lands on exactly one successor.
			owner := ""
			for _, id := range c.ring.Successors(job.AKey, len(c.members)) {
				if c.aliveLocked(id) {
					owner = id
					break
				}
			}
			if owner != c.cfg.Self {
				continue
			}
			c.adopted[job.Key] = true
			c.adoptions = append(c.adoptions, Adoption{Job: job, From: p.id, Epoch: p.epoch})
			orphans = append(orphans, orphan{job: job, from: p.id, epoch: p.epoch})
		}
		// Consume the gossip: these jobs are either adopted above or
		// another survivor's responsibility. A later heartbeat from a
		// rebooted incarnation repopulates the list.
		p.pending = nil
	}
	if len(orphans) > 0 {
		c.saveAdoptionsLocked()
	}
	c.mu.Unlock()
	for _, o := range orphans {
		c.cfg.Logf("cluster: adopting job %s (bench %s, policy %s) from dead %s@%d",
			o.job.Key, o.job.Bench, o.job.Label, o.from, o.epoch)
		if c.cfg.Adopt != nil {
			c.cfg.Adopt(o.job, o.from, o.epoch)
		}
	}
}

func (c *Cluster) deadCountLocked() int {
	n := 0
	for _, p := range c.peers {
		if !p.alive {
			n++
		}
	}
	return n
}
