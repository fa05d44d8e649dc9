package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"time"
)

// exploreN is how many fresh synthetic programs one explore round
// serves. Each round starts a new tlsd, so the daemon's memory is bounded
// by one round's programs (about 7 MB each) however long the run.
const exploreN = 125

// exploreRound is one fresh tlsd serving one round's programs, every
// request cold.
type exploreRound struct {
	Plan   explorePlan
	Setup  time.Duration
	Load   loadResult
	PeakMB float64
	Bodies map[string][]byte // normalized cold answer per key
	Delta  counts            // /stats movement, when traced
}

// runExploreRound starts a tlsd serving n fresh programs, sends every
// (program, policy) pair once, then re-reads every key warm: each warm
// answer must equal its cold one byte for byte. withStats also snapshots
// /stats around the round for the replay check.
//
// The end-to-end rounds run the daemon without a cache dir (durable
// false) because the benchmark writes only
// inside the checkout, whatever disk holds it. On a disk mounted with
// discard, tlsd's second store write of each cold artifact replaces a
// file, which costs about 70 ms and varies by ±15% between rounds: it
// would make every request a measurement of the disk, hiding the
// simulator that does most of a cold request's work. The dashboard
// exercises the disk tier; the traced run adds one small durable round
// for the journal and the store's disk writes.
func runExploreRound(e *env, res *result, round, n int, durable, withStats bool) (*exploreRound, error) {
	rs := roundSeed(e.seed, round)
	res.noteRound(rs)
	dir := filepath.Join(e.work, "explore-"+strconv.Itoa(round))
	out := &exploreRound{Plan: newExplorePlan(rs, n), Bodies: make(map[string][]byte)}
	d, setup, err := startDaemon(e.tlsd, dir, out.Plan.Programs, durable)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	out.Setup = setup
	var before daemonStats
	if withStats {
		if before, err = d.stats(); err != nil {
			return nil, err
		}
	}

	paths := make([][]string, len(out.Plan.Clients))
	cold := make([][][]byte, len(out.Plan.Clients))
	for c, reqs := range out.Plan.Clients {
		cold[c] = make([][]byte, len(reqs))
		for _, q := range reqs {
			paths[c] = append(paths[c], q.Path)
		}
	}
	out.Load = runLoad(d.base, paths, func(c, i int, r response) bool {
		if r.Status != 200 || r.Cache != "miss" {
			return false
		}
		cold[c][i] = normalize(r.Body)
		return true
	})
	res.Attempted += out.Load.Attempted
	res.Failed += out.Load.Failed
	if out.Load.Failed > 0 {
		res.note(fmt.Sprintf("round %d: %d of %d cold requests failed", round, out.Load.Failed, out.Load.Attempted))
	}

	// Warm re-reads: outside the measured load, one client.
	for c, reqs := range out.Plan.Clients {
		for i, q := range reqs {
			if cold[c][i] == nil {
				continue // already counted as failed
			}
			out.Bodies[q.Key] = cold[c][i]
			res.Attempted++
			warm, cache, err := get(d, q.Path)
			if err != nil || cache != "hit" || !bytes.Equal(normalize(warm), cold[c][i]) {
				res.mismatch(fmt.Sprintf("round %d: %s: warm re-read differs from cold answer (cache %q, err %v)", round, q.Key, cache, err))
			}
		}
	}
	if want, ok := e.digests.exploreDigest(e.seed, round); ok && n == exploreN {
		if got := digest(out.Bodies); got != want {
			res.mismatch(fmt.Sprintf("round %d: explore digest %s, committed %s", round, got, want))
		}
	}
	if withStats {
		after, err := d.stats()
		if err != nil {
			return nil, err
		}
		out.Delta = delta(before, after)
	}
	out.PeakMB, err = d.peakRSSMB()
	logf("explore round %d: set-up %v, %d requests in %v, peak RSS %.0f MB", round, setup.Round(time.Microsecond), out.Load.Attempted, out.Load.Wall.Round(time.Millisecond), out.PeakMB)
	return out, err
}

// runExplore repeats explore rounds until the run has lasted its
// seconds, with at least minRounds set-ups and a thousand samples.
func runExplore(e *env) (*result, error) {
	res := newResult(e)
	var t rounds
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < e.seconds || len(t.lat) < minSamples; r++ {
		er, err := runExploreRound(e, res, r, exploreN, false, false)
		if err != nil {
			return nil, err
		}
		t.add(er.Setup.Seconds(), er.Load.Wall.Seconds(), er.PeakMB, er.Load.LatMS)
	}
	return res, t.report(res)
}
