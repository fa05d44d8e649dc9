package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// dashboardRequests is the length of one dashboard round's request
// stream.
const dashboardRequests = 100_000

// dashboardFixture is the populated cache dir every dashboard round
// starts from, and the answers it must serve.
type dashboardFixture struct {
	Keys  []request
	Cache string   // populated cache dir, copied per round
	Warm  [][]byte // exact warm answer per key index
}

// dashboardFixtureFor returns the fixture populated by this tlsd binary,
// populating it on first use. It is kept across runs because a populate
// is a cold request for every artifact, and tlsd's second store write of
// each artifact replaces a file — which costs about 70 ms on a disk
// mounted with discard. Keyed by the binary, a changed program always
// gets a fresh fixture.
func dashboardFixtureFor(e *env) (*dashboardFixture, error) {
	bin, err := os.ReadFile(e.tlsd)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	dir := filepath.Join(e.root, "dashboard-fixture-"+hex.EncodeToString(sum[:8]))
	fx := &dashboardFixture{Keys: dashboardKeys(), Cache: filepath.Join(dir, "cache")}
	if data, err := os.ReadFile(filepath.Join(dir, "answers.json")); err == nil {
		if err := json.Unmarshal(data, &fx.Warm); err == nil && len(fx.Warm) == len(fx.Keys) {
			return fx, nil
		}
	}
	tmp, err := os.MkdirTemp(e.root, "dashboard-populate-")
	if err != nil {
		return nil, err
	}
	pop, err := populateDashboard(e, tmp)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(pop.Warm)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "answers.json"), data, 0o644); err != nil {
		return nil, err
	}
	// A concurrent run may have published the same fixture first; its
	// copy is as good as ours.
	if err := os.Rename(tmp, dir); err != nil {
		fx.Cache = pop.Cache
	}
	fx.Warm = pop.Warm
	return fx, nil
}

// populateDashboard asks a cold tlsd over dir for all 144 dashboard
// artifacts, untimed.
func populateDashboard(e *env, dir string) (*dashboardFixture, error) {
	fx := &dashboardFixture{Keys: dashboardKeys(), Cache: filepath.Join(dir, "cache")}
	fx.Warm = make([][]byte, len(fx.Keys))
	d, _, err := startDaemon(e.tlsd, dir, nil, true)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	paths := make([][]string, clients)
	for i, q := range fx.Keys {
		paths[i%clients] = append(paths[i%clients], q.Path)
	}
	lr := runLoad(d.base, paths, func(c, i int, r response) bool {
		if r.Status != 200 || r.Cache != "miss" {
			return false
		}
		fx.Warm[i*clients+c] = warmBody(r.Body)
		return true
	})
	if lr.Failed > 0 {
		return nil, fmt.Errorf("populate: %d of %d cold requests failed", lr.Failed, lr.Attempted)
	}
	logf("dashboard populate: %d artifacts in %v", lr.Attempted, lr.Wall.Round(time.Millisecond))
	return fx, nil
}

// digest is the digest of the 144 artifacts the fixture serves.
func (fx *dashboardFixture) digest() string {
	normalized := make(map[string][]byte, len(fx.Keys))
	for i, q := range fx.Keys {
		normalized[q.Key] = normalize(fx.Warm[i])
	}
	return digest(normalized)
}

// checkFixture compares the populated artifacts with the committed
// digest.
func checkFixture(e *env, res *result, fx *dashboardFixture) {
	if got := fx.digest(); got != e.digests.Dashboard {
		res.mismatch(fmt.Sprintf("dashboard digest %s, committed %s", got, e.digests.Dashboard))
	}
}

// dashboardRound is one fresh tlsd over a copy of the populated cache.
type dashboardRound struct {
	Plan   [][]int // key indices per client
	Setup  time.Duration
	Load   loadResult
	PeakMB float64
	Delta  counts
}

// runDashboardRound serves a seeded Zipf stream from a fresh tlsd over a
// copy of the fixture. Every answer must be a warm hit equal to the
// populated artifact byte for byte.
func runDashboardRound(e *env, res *result, fx *dashboardFixture, round int, withStats bool) (*dashboardRound, error) {
	rs := roundSeed(e.seed, round)
	res.noteRound(rs)
	dir := filepath.Join(e.work, "dashboard-"+strconv.Itoa(round))
	if err := copyTree(fx.Cache, filepath.Join(dir, "cache")); err != nil {
		return nil, err
	}
	out := &dashboardRound{Plan: dashboardPlan(rs, len(fx.Keys), dashboardRequests)}
	d, setup, err := startDaemon(e.tlsd, dir, nil, true)
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
	paths := make([][]string, len(out.Plan))
	for c, idx := range out.Plan {
		paths[c] = make([]string, len(idx))
		for i, k := range idx {
			paths[c][i] = fx.Keys[k].Path
		}
	}
	out.Load = runLoad(d.base, paths, func(c, i int, r response) bool {
		return r.Status == 200 && r.Cache == "hit" && bytes.Equal(r.Body, fx.Warm[out.Plan[c][i]])
	})
	res.Attempted += out.Load.Attempted
	res.Failed += out.Load.Failed
	if out.Load.Failed > 0 {
		res.note(fmt.Sprintf("round %d: %d of %d answers were not the populated artifact", round, out.Load.Failed, out.Load.Attempted))
	}
	if withStats {
		after, err := d.stats()
		if err != nil {
			return nil, err
		}
		out.Delta = delta(before, after)
	}
	out.PeakMB, err = d.peakRSSMB()
	logf("dashboard round %d: set-up %v, %d requests in %v, peak RSS %.0f MB", round, setup.Round(time.Microsecond), out.Load.Attempted, out.Load.Wall.Round(time.Millisecond), out.PeakMB)
	return out, err
}

// runDashboard repeats dashboard rounds over the fixture until the run
// has lasted its seconds, with at least minRounds set-ups.
func runDashboard(e *env) (*result, error) {
	res := newResult(e)
	fx, err := dashboardFixtureFor(e)
	if err != nil {
		return nil, err
	}
	checkFixture(e, res, fx)
	var t rounds
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < e.seconds; r++ {
		dr, err := runDashboardRound(e, res, fx, r, false)
		if err != nil {
			return nil, err
		}
		t.add(dr.Setup.Seconds(), dr.Load.Wall.Seconds(), dr.PeakMB, dr.Load.LatMS)
	}
	return res, t.report(res)
}
