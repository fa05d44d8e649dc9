package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tlssync"
)

// layerUnits are the per-layer metrics a --trace 1 run reports, with
// units; BENCHMARK.json lists the same names. Times and counts are
// totals over the traced run's plan; a layer a workload never calls
// reports an explicit zero.
var layerUnits = map[string]string{
	"lang.parse_ms":               "ms",
	"core.compile_ms":             "ms",
	"core.compiles":               "count",
	"verify.binary_ms":            "ms",
	"interp.trace_ms":             "ms",
	"interp.events":               "count",
	"interp.ns_per_event":         "ns/event",
	"profile.analyze_ms":          "ms",
	"profile.ns_per_event":        "ns/event",
	"sim.simulate_ms":             "ms",
	"sim.calls":                   "count",
	"sim.ns_per_event":            "ns/event",
	"sim.allocs_per_event":        "allocs/event",
	"sim.bytes_per_event":         "B/event",
	"sim.seq_baseline_ms":         "ms",
	"report.render_ms":            "ms",
	"tlssync.run_retained_mb":     "MB",
	"jobs.queue_wait_ms_p50":      "ms",
	"jobs.queue_wait_ms_p99":      "ms",
	"jobs.run_ms":                 "ms",
	"jobs.submitted":              "count",
	"jobs.coalesced":              "count",
	"resilience.admit_wait_ms":    "ms",
	"resilience.shed":             "count",
	"store.get_mem_us":            "us",
	"store.get_disk_us":           "us",
	"store.put_us":                "us",
	"store.put_durable_us":        "us",
	"store.hits":                  "count",
	"store.disk_hits":             "count",
	"store.misses":                "count",
	"store.puts_per_artifact":     "puts/artifact",
	"store.open_ms":               "ms",
	"journal.append_us":           "us",
	"journal.appends_per_request": "appends/request",
	"journal.open_ms":             "ms",
	"tracing.overhead_ratio":      "ratio",
}

func newLayerResult(e *env) *result {
	r := newResult(e)
	r.units = layerUnits
	for name := range layerUnits {
		r.set(name, 0) // explicit zeros for layers the workload leaves idle
	}
	return r
}

// retainSample bounds how many programs the retention measurement
// prepares: each costs a compile outside the traced plan.
const retainSample = 16

// setCompute fills the compute layers from the layer replay.
func (r *result) setCompute(rec *recorder, cc computeCounts) {
	t := rec.totals()
	ms := func(name string) float64 { return float64(t[name].Total) / 1e6 }
	r.set("lang.parse_ms", ms("lang.parse"))
	r.set("core.compile_ms", ms("core.compile"))
	r.set("core.compiles", float64(cc.Compiles))
	r.set("verify.binary_ms", ms("verify.binary"))
	r.set("interp.trace_ms", ms("interp.trace"))
	r.set("interp.events", float64(cc.TraceEvents))
	r.set("interp.ns_per_event", ratio(float64(t["interp.trace"].Total), float64(cc.TraceEvents)))
	r.set("profile.analyze_ms", ms("profile.analyze"))
	r.set("profile.ns_per_event", ratio(float64(t["profile.analyze"].Total), float64(cc.ProfileEvents)))
	r.set("sim.simulate_ms", ms("sim.simulate"))
	r.set("sim.calls", float64(cc.SimCalls))
	r.set("sim.ns_per_event", ratio(float64(t["sim.simulate"].Total), float64(cc.SimEvents)))
	r.set("sim.allocs_per_event", ratio(float64(cc.SimAllocs), float64(cc.SimEvents)))
	r.set("sim.bytes_per_event", ratio(float64(cc.SimBytes), float64(cc.SimEvents)))
	r.set("sim.seq_baseline_ms", ms("sim.seq_baseline"))
}

// setJobs fills the job layer from jobs.do / jobs.run spans.
func (r *result) setJobs(rec *recorder, submitted, coalesced int64) error {
	waits := rec.waits("jobs.run", time.Millisecond)
	r.context.Samples["jobs.queue_wait_ms"] = len(waits)
	for _, p := range []struct {
		name string
		p    float64
	}{{"jobs.queue_wait_ms_p50", 50}, {"jobs.queue_wait_ms_p99", 99}} {
		v, err := nearestRank(waits, p.p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		r.set(p.name, v)
	}
	r.set("jobs.run_ms", float64(rec.totals()["jobs.run"].Total)/1e6)
	r.set("jobs.submitted", float64(submitted))
	r.set("jobs.coalesced", float64(coalesced))
	return nil
}

// setServing fills the store, journal and resilience layers from the
// serving replay's spans and counters; the replay check holds those
// counters equal to the daemon's. requests is the number of measured
// requests, artifacts the number of artifacts the plan creates.
func (r *result) setServing(rec *recorder, c counts, requests, artifacts int) {
	t := rec.totals()
	r.set("store.get_mem_us", mean(t, "store.get_mem"))
	r.set("store.get_disk_us", mean(t, "store.get_disk"))
	r.set("store.put_us", mean(t, "store.put"))
	r.set("store.open_ms", float64(t["store.open"].Total)/1e6)
	r.set("journal.append_us", mean(t, "journal.begin", "journal.commit"))
	r.set("journal.open_ms", float64(t["journal.open"].Total)/1e6)
	r.set("resilience.admit_wait_ms", float64(t["resilience.acquire"].Total)/1e6)
	r.set("store.hits", float64(c.StoreHits))
	r.set("store.disk_hits", float64(c.StoreDiskHits))
	r.set("store.misses", float64(c.StoreMisses))
	r.set("store.puts_per_artifact", ratio(float64(c.StorePuts), float64(artifacts)))
	r.set("journal.appends_per_request", ratio(float64(c.JournalAppends), float64(requests)))
	r.set("resilience.shed", float64(c.Shed))
}

// mean is the mean duration, in µs, of the spans with the given names.
func mean(t map[string]spanTotal, names ...string) float64 {
	var d time.Duration
	n := 0
	for _, name := range names {
		d += t[name].Total
		n += t[name].Calls
	}
	return ratio(float64(d)/1e3, float64(n))
}

// finishTrace writes the spans and prints each layer's self time.
func finishTrace(e *env, rec *recorder) error {
	self := layerSelf(rec.totals())
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("self time %-12s %12.3f ms\n", l, float64(self[l])/1e6)
	}
	return rec.write(e.spans)
}

// traceFigures is the figures traced run: six in-process sweeps, the
// first of each three untraced and the others traced (the overhead ratio,
// and over a thousand job waits for the queue-wait p99), a second render
// pass over the last sweep's memoized results, the compute-layer replay
// over the 15 benchmarks and the retention measurement.
func traceFigures(e *env) (*result, error) {
	res := newLayerResult(e)
	rec := newRecorder()
	var untraced, traced []float64
	var submitted, coalesced int64
	var last *figuresRound
	for pass := 0; pass < 6; pass++ {
		r := rec
		if pass%3 == 0 {
			r = nil
		}
		rs := roundSeed(e.seed, pass)
		res.noteRound(rs)
		last = nil // let the previous sweep's runs go before the next
		fr, err := sweepFigures(rs, r)
		if err != nil {
			return nil, err
		}
		res.Attempted += int(fr.jobs.Submitted) + len(fr.Texts)
		res.Failed += fr.Failed
		if got := digest(fr.Texts); got != e.digests.Figures {
			res.mismatch(fmt.Sprintf("pass %d: figures digest %s, committed %s", pass, got, e.digests.Figures))
		}
		if r == nil {
			untraced = append(untraced, fr.SetupS+fr.SweepS)
			continue
		}
		traced = append(traced, fr.SetupS+fr.SweepS)
		submitted += fr.jobs.Submitted
		coalesced += fr.jobs.Coalesced
		last = fr
	}
	rec.timed("report.render", -1, func(int) {
		for _, id := range tlssync.ExperimentIDs() {
			if _, err := tlssync.Experiments[id](last.runs); err != nil {
				res.mismatch(fmt.Sprintf("second render of %s: %v", id, err))
			}
		}
	})
	last = nil
	if err := res.setJobs(rec, submitted, coalesced); err != nil {
		return nil, err
	}
	res.set("report.render_ms", float64(rec.totals()["report.render"].Total)/1e6)
	res.set("tracing.overhead_ratio", median(traced)/median(untraced))

	ws := tlssync.Benchmarks()
	cc, err := replayLayers(rec, ws, dashboardPolicies)
	if err != nil {
		return nil, err
	}
	res.setCompute(rec, cc)
	mb, err := retainedMB(ws)
	if err != nil {
		return nil, err
	}
	res.set("tlssync.run_retained_mb", mb)
	return res, finishTrace(e, rec)
}

// traceExplore is the explore traced run: daemon rounds with /stats
// snapshots, the serving replay of the same plans untraced and traced
// (the overhead ratio and the replay check), a small durable round
// replayed the same way (the journal and disk writes), then the
// compute-layer replay over every program the rounds served.
func traceExplore(e *env) (*result, error) {
	res := newLayerResult(e)
	var rounds []*exploreRound
	var daemon counts
	requests := 0
	for r := 0; r < minRounds; r++ {
		er, err := runExploreRound(e, res, r, exploreN, false, true)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, er)
		daemon = daemon.add(er.Delta)
		requests += len(er.Plan.requests())
	}
	rec := newRecorder()
	replayed, err := replayTwice(res, rec, daemon, len(rounds), func(r *recorder, pass, n int) (counts, error) {
		c, differ, err := replayExploreRound(r, "", rounds[n].Plan, rounds[n].Bodies)
		if pass == 0 {
			for _, key := range differ {
				res.mismatch(fmt.Sprintf("round %d: %s: replayed artifact differs from the daemon's", n, key))
			}
		}
		return c, err
	})
	if err != nil {
		return nil, fmt.Errorf("explore replay: %w", err)
	}
	if err := res.setJobs(rec, replayed.JobsSubmitted, replayed.JobsCoalesced); err != nil {
		return nil, err
	}
	res.setServing(rec, replayed, requests, requests)
	if err := traceDurableRound(e, res, rec); err != nil {
		return nil, err
	}

	var ws []*tlssync.Workload
	for _, er := range rounds {
		for _, name := range er.Plan.Programs {
			w, err := tlssync.Benchmark(name)
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	rounds = nil
	cc, err := replayLayers(rec, ws, explorePolicies)
	if err != nil {
		return nil, err
	}
	res.setCompute(rec, cc)
	mb, err := retainedMB(ws[:retainSample])
	if err != nil {
		return nil, err
	}
	res.set("tlssync.run_retained_mb", mb)
	return res, finishTrace(e, rec)
}

// durableN is how many programs the durable explore round serves. It is
// small because every cold artifact replaces a file on disk, which costs
// about 70 ms on a disk mounted with discard (README.md, "Disk").
const durableN = 4

// traceDurableRound serves one small explore round from a tlsd with a
// cache dir, which journals every cold request and writes every artifact
// to disk, and replays it traced over a cache dir of its own. The replay
// check holds the two to the same counters, journal appends included;
// the journal metrics and store.put_durable_us come from this round.
func traceDurableRound(e *env, res *result, rec *recorder) error {
	er, err := runExploreRound(e, res, minRounds, durableN, true, true)
	if err != nil {
		return err
	}
	c, differ, err := replayExploreRound(rec, filepath.Join(e.work, "replay-durable"), er.Plan, er.Bodies)
	if err != nil {
		return fmt.Errorf("durable replay: %w", err)
	}
	for _, key := range differ {
		res.mismatch(fmt.Sprintf("durable round: %s: replayed artifact differs from the daemon's", key))
	}
	for _, d := range agree(er.Delta, c) {
		res.mismatch("replay check, durable round: " + d)
	}
	t := rec.totals()
	res.set("store.put_durable_us", mean(t, "store.put_durable"))
	res.set("journal.append_us", mean(t, "journal.begin", "journal.commit"))
	res.set("journal.appends_per_request", ratio(float64(c.JournalAppends), float64(len(er.Plan.requests()))))
	res.set("journal.open_ms", float64(t["journal.open"].Total)/1e6)
	return nil
}

// traceDashboard is the dashboard traced run: daemon rounds with /stats
// snapshots and the store-read replay of the same streams, untraced and
// traced. Every compute layer stays at an explicit zero: the dashboard
// must not compile or simulate anything.
func traceDashboard(e *env) (*result, error) {
	res := newLayerResult(e)
	fx, err := dashboardFixtureFor(e)
	if err != nil {
		return nil, err
	}
	checkFixture(e, res, fx)
	storeKeys, err := dashboardStoreKeys(fx.Keys)
	if err != nil {
		return nil, err
	}
	var rounds []*dashboardRound
	var daemon counts
	requests := 0
	for r := 0; r < minRounds; r++ {
		dr, err := runDashboardRound(e, res, fx, r, true)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, dr)
		daemon = daemon.add(dr.Delta)
		requests += dr.Load.Attempted
	}
	rec := newRecorder()
	replayed, err := replayTwice(res, rec, daemon, len(rounds), func(r *recorder, pass, n int) (counts, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("replay-%d-%d", pass, n))
		return replayDashboardRound(r, dir, fx, rounds[n].Plan, storeKeys)
	})
	if err != nil {
		return nil, fmt.Errorf("dashboard replay: %w", err)
	}
	res.setServing(rec, replayed, requests, 0)
	res.set("jobs.submitted", float64(replayed.JobsSubmitted))
	res.set("jobs.coalesced", float64(replayed.JobsCoalesced))
	return res, finishTrace(e, rec)
}

// replayTwice replays every round untraced, then traced into rec, and
// returns the traced replay's counters. It sets the overhead ratio and
// holds the counters to the daemon's: the replay check.
func replayTwice(res *result, rec *recorder, daemon counts, rounds int, replay func(r *recorder, pass, round int) (counts, error)) (counts, error) {
	var walls [2]time.Duration
	var replayed counts
	for pass, r := range []*recorder{nil, rec} {
		start := time.Now()
		replayed = counts{}
		for n := 0; n < rounds; n++ {
			c, err := replay(r, pass, n)
			if err != nil {
				return counts{}, err
			}
			replayed = replayed.add(c)
		}
		walls[pass] = time.Since(start)
	}
	for _, d := range agree(daemon, replayed) {
		res.mismatch("replay check: " + d)
	}
	res.set("tracing.overhead_ratio", walls[1].Seconds()/walls[0].Seconds())
	return replayed, nil
}

// regenerateDigests recomputes every committed digest at the default
// seed from the current program and writes them. Run it only for a
// change that is meant to alter what the program computes.
func regenerateDigests(e *env, work, path string) error {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "digests-")
	if err != nil {
		return err
	}
	e.work = dir
	e.seed = 1
	d := &digests{ExploreSeed: e.seed}
	fr, err := sweepFigures(e.seed, nil)
	if err != nil {
		return err
	}
	d.Figures = digest(fr.Texts)
	e.digests = d
	res := newResult(e)
	for r := 0; r < exploreDigestRounds; r++ {
		er, err := runExploreRound(e, res, r, exploreN, false, false)
		if err != nil {
			return err
		}
		d.Explore = append(d.Explore, digest(er.Bodies))
	}
	fx, err := populateDashboard(e, filepath.Join(dir, "populate"))
	if err != nil {
		return err
	}
	d.Dashboard = fx.digest()
	if res.Failed > 0 {
		return fmt.Errorf("%d operations failed while computing digests", res.Failed)
	}
	return d.save(path)
}

// exploreDigestRounds is how many explore rounds have a committed digest
// at the default seed: more than a run at the default seed reaches.
const exploreDigestRounds = 12
