package main

import (
	"math"
	"sort"

	"tlssync"
)

// clients is the load shape of every workload: closed-loop clients,
// each with at most one request outstanding, over at most this many
// connections. It equals the CPU count of the host the benchmark was
// sized on.
const clients = 2

// rng is splitmix64: tiny, seedable, and identical on every platform, so
// a seed names the same plan everywhere.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle permutes n items in place through swap (Fisher–Yates).
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// roundSeed derives the seed of one round from the run's seed, so every
// round of a run sees different inputs and a run is a pure function of
// its seed.
func roundSeed(seed uint64, round int) uint64 {
	r := rng{s: seed ^ uint64(round+1)*0xd1b54a32d192ed03}
	return r.next()
}

// request is one GET the load generator sends. Key names the artifact it
// returns, for correctness checks and the in-process replay.
type request struct {
	Key  string // "bench/policy" or "figure/<id>"
	Path string
}

func simulateRequest(bench, policy string) request {
	return request{
		Key:  bench + "/" + policy,
		Path: "/simulate?bench=" + bench + "&policy=" + policy,
	}
}

func figureRequest(id string) request {
	return request{Key: "figure/" + id, Path: "/figures/" + id}
}

// explorePolicies are the policies every explore program is asked for:
// the four of the paper's whole-program comparison (Figure 12).
var explorePolicies = []string{"U", "C", "H", "B"}

// explorePlan is one explore round: n fresh synthetic programs and every
// (program, policy) pair exactly once, in seeded-shuffle order. Programs
// are dealt to clients, so two in-flight requests never share a program:
// no request waits on another's compile, and the daemon's job counters
// are a pure function of the plan (which the replay check relies on).
type explorePlan struct {
	Programs []string    // serving set, in SynthSet order
	Clients  [][]request // per-client request order
}

func newExplorePlan(seed uint64, n int) explorePlan {
	ws := tlssync.SynthBenchmarks(seed, n)
	r := rng{s: seed}
	owner := make([]int, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r.shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for j, i := range perm {
		owner[i] = j % clients
	}
	type pair struct{ prog, pol int }
	pairs := make([]pair, 0, n*len(explorePolicies))
	for i := range ws {
		for p := range explorePolicies {
			pairs = append(pairs, pair{i, p})
		}
	}
	r.shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	p := explorePlan{Clients: make([][]request, clients)}
	for _, w := range ws {
		p.Programs = append(p.Programs, w.Name)
	}
	for _, pr := range pairs {
		c := owner[pr.prog]
		p.Clients[c] = append(p.Clients[c], simulateRequest(ws[pr.prog].Name, explorePolicies[pr.pol]))
	}
	return p
}

// requests returns every request of the plan, client by client.
func (p explorePlan) requests() []request {
	var out []request
	for _, c := range p.Clients {
		out = append(out, c...)
	}
	return out
}

// dashboardPolicies are the nine named policies tlsd serves.
var dashboardPolicies = []string{"U", "O", "T", "C", "E", "L", "H", "P", "B"}

// dashboardKeys is the dashboard's key space: every (paper benchmark ×
// policy) simulation and every experiment, 135 + 9 = 144 artifacts.
func dashboardKeys() []request {
	var out []request
	for _, w := range tlssync.Benchmarks() {
		for _, pol := range dashboardPolicies {
			out = append(out, simulateRequest(w.Name, pol))
		}
	}
	for _, id := range tlssync.ExperimentIDs() {
		out = append(out, figureRequest(id))
	}
	return out
}

// zipfS is the dashboard's popularity skew: a few figures and cells are
// read far more often than the rest, as on a shared results page.
const zipfS = 1.1

// popularitySeed fixes which dashboard keys are popular. It does not
// vary with the run's seed: what a read costs depends on which artifact
// is read (a figure's text is larger than a cell), so runs at different
// seeds must share one popularity profile to be comparable.
const popularitySeed = 0x7d1a5b

// dashboardPlan draws m requests from a Zipf(s=1.1) distribution over
// the keys, ranked by a fixed permutation, and deals them round-robin
// to the clients. Each entry indexes keys.
func dashboardPlan(seed uint64, nkeys, m int) [][]int {
	perm := rng{s: popularitySeed}
	rank := make([]int, nkeys)
	for i := range rank {
		rank[i] = i
	}
	perm.shuffle(nkeys, func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
	r := rng{s: seed}
	cdf := make([]float64, nkeys)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = total
	}
	out := make([][]int, clients)
	for i := 0; i < m; i++ {
		u := r.float64() * total
		k := sort.SearchFloat64s(cdf, u)
		if k >= nkeys {
			k = nkeys - 1
		}
		out[i%clients] = append(out[i%clients], rank[k])
	}
	return out
}

// figuresOrder is the seeded order in which a figures round hands the
// experiment IDs to Prewarm. It changes only the order work is
// submitted, never what is rendered.
func figuresOrder(seed uint64) []string {
	ids := tlssync.ExperimentIDs()
	r := rng{s: seed}
	r.shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}
