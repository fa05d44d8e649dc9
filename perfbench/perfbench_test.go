package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"tlssync"
	"tlssync/internal/ir"
	"tlssync/internal/sim"
	"tlssync/internal/trace"
)

func TestNearestRankRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, err := nearestRank(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it; want a refusal")
	}
	v, err := nearestRank(seq(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := nearestRank(seq(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := nearestRank(seq(10), 50); err == nil {
		t.Error("p50 of 10 samples has 5 beyond it; want a refusal")
	}
	if _, err := nearestRank(nil, 50); err == nil {
		t.Error("percentile of no samples; want a refusal")
	}
}

func fingerprint(cs [][]request) string {
	var b strings.Builder
	for c, reqs := range cs {
		fmt.Fprintf(&b, "client %d:", c)
		for _, q := range reqs {
			b.WriteString(" " + q.Key)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestPlansAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := newExplorePlan(7, 12), newExplorePlan(7, 12), newExplorePlan(8, 12)
	if fingerprint(a.Clients) != fingerprint(b.Clients) {
		t.Error("explore: the same seed gave different plans")
	}
	if fingerprint(a.Clients) == fingerprint(c.Clients) {
		t.Error("explore: different seeds gave the same plan")
	}
	if !reflect.DeepEqual(dashboardPlan(7, 144, 5000), dashboardPlan(7, 144, 5000)) {
		t.Error("dashboard: the same seed gave different plans")
	}
	if reflect.DeepEqual(dashboardPlan(7, 144, 5000), dashboardPlan(8, 144, 5000)) {
		t.Error("dashboard: different seeds gave the same plan")
	}
	if roundSeed(7, 0) == roundSeed(7, 1) || roundSeed(7, 0) != roundSeed(7, 0) {
		t.Error("round seeds must differ per round and repeat per seed")
	}
}

func TestExplorePlanAsksEveryPairOnceAndSplitsPrograms(t *testing.T) {
	p := newExplorePlan(3, 20)
	seen := make(map[string]int)
	owner := make(map[string]int)
	for c, reqs := range p.Clients {
		for _, q := range reqs {
			seen[q.Key]++
			bench, _, _ := strings.Cut(q.Key, "/")
			if o, ok := owner[bench]; ok && o != c {
				t.Errorf("%s is requested by clients %d and %d", bench, o, c)
			}
			owner[bench] = c
		}
	}
	if len(seen) != 20*len(explorePolicies) {
		t.Errorf("%d distinct pairs, want %d", len(seen), 20*len(explorePolicies))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("%s requested %d times", k, n)
		}
	}
}

func TestZipfPlanReachesEveryDashboardKey(t *testing.T) {
	keys := dashboardKeys()
	if len(keys) != 144 {
		t.Fatalf("%d dashboard keys, want 144", len(keys))
	}
	for seed := uint64(1); seed <= 10; seed++ {
		hit := make(map[int]bool)
		for _, c := range dashboardPlan(roundSeed(seed, 0), len(keys), dashboardRequests) {
			for _, k := range c {
				hit[k] = true
			}
		}
		if len(hit) != len(keys) {
			t.Errorf("seed %d: the plan reaches %d of %d keys", seed, len(hit), len(keys))
		}
	}
}

func TestDigestCatchesAFlippedByte(t *testing.T) {
	bodies := map[string][]byte{
		"gzip_comp/U": []byte(`{"cache": "", "result": {"violations": 12}}`),
		"figure/10":   []byte(`{"cache": "", "figure": {"text": "U P H C B"}}`),
	}
	want := digest(bodies)
	for key, body := range bodies {
		for i := range body {
			flipped := append([]byte(nil), body...)
			flipped[i] ^= 1
			changed := map[string][]byte{}
			for k, v := range bodies {
				changed[k] = v
			}
			changed[key] = flipped
			if digest(changed) == want {
				t.Fatalf("flipping byte %d of %s left the digest unchanged", i, key)
			}
		}
	}
	moved := map[string][]byte{"gzip_comp/U" + `{"cache": "", "result": {"violations": 1`: []byte(`2}}`), "figure/10": bodies["figure/10"]}
	if digest(moved) == want {
		t.Error("moving bytes from a body into its key left the digest unchanged")
	}
}

func TestColdAndWarmAnswersNormalizeAlike(t *testing.T) {
	cold := []byte("{\n  \"cache\": \"miss\",\n  \"result\": {}\n}\n")
	warm := warmBody(cold)
	if string(warm) != "{\n  \"cache\": \"hit\",\n  \"result\": {}\n}\n" {
		t.Errorf("warm body %q", warm)
	}
	if string(normalize(cold)) != string(normalize(warm)) {
		t.Error("a cold answer and its warm re-read normalize differently")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "jobs.run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "sim.simulate", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "sim.simulate", Start: 40, End: 70}, // overlaps span 1
		{ID: 3, Parent: 0, Name: "store.put", Start: 90, End: 120},   // ends after its parent
	}}
	tot := r.totals()
	if got := tot["jobs.run"].Self; got != 30 {
		t.Errorf("jobs.run self = %v, want 30 (100 minus the union 10–70 and 90–100)", got)
	}
	if got := layerSelf(tot)["sim"]; got != 70 {
		t.Errorf("sim self = %v, want 70", got)
	}
}

// TestLabelTablesMatchRunSimulate pins the compute-layer replay's
// label-to-binary table and label policies to what Run.Simulate runs:
// for every label, simulating the policy on the binary the replay picks
// must give Run.Simulate's result.
func TestLabelTablesMatchRunSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates a benchmark")
	}
	w := tlssync.Benchmarks()[0]
	run, err := tlssync.NewRunWithWorkers(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := run.Build
	binaries := map[string]*ir.Program{"base": b.Base, "train": b.Train, "ref": b.Ref}
	traces := make(map[string]*trace.ProgramTrace)
	for name, p := range binaries {
		if traces[name], err = b.Trace(p, w.Ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range dashboardPolicies {
		want, err := run.Simulate(l)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.Simulate(sim.Input{Trace: traces[labelBinary[l]], Policy: labelPolicy(l)})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: the replay simulates %s on the %s binary; Run.Simulate gives a different result",
				w.Name, l, labelPolicy(l).Name, labelBinary[l])
		}
	}
}

// TestBenchmarkJSONMatchesTheCode pins BENCHMARK.json's metric names and
// units to what the benchmark prints.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		what    string
		listed  []struct{ Name, Unit string }
		printed map[string]string
	}{{"end_to_end", b.EndToEnd, endToEndUnits}, {"per_layer", b.PerLayer, layerUnits}} {
		listed := make(map[string]string)
		for _, x := range m.listed {
			listed[x.Name] = x.Unit
		}
		if !reflect.DeepEqual(listed, m.printed) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", m.what, listed, m.printed)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "figures,explore,dashboard" {
		t.Errorf("workloads %v", names)
	}
}
