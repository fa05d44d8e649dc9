package tlssync

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

// exactResultsDigests holds, per benchmark, the SHA-256 of every
// simulator output computed by exactResultsHash. They pin the exact
// bytes the timing simulator produces, not only the rounded figure rows
// TestGolden compares on three benchmarks: slot breakdowns, wait-cycle
// counters and timeline spans of all 15 benchmarks under every policy.
// A simulator optimization must leave them unchanged; a deliberate
// change to the timing model updates them in the same commit.
var exactResultsDigests = map[string]string{
	"go":           "e0e40ed797ad93a1c5d84dbb1911c49b8de4c823907c857533aae00e13faadd2",
	"m88ksim":      "7cea65d6078fccb45359a6f933833bdf1b52b789d3d143eee4aca2553858c616",
	"ijpeg":        "ea3b50968ece9a2f061aae763b6f6148e1a1a227018f8feb46e9980e5373d1f7",
	"gzip_comp":    "b5fd2e7f6cac5a5fbd01e6bc76a66258d0caa41bce38636151400db426992120",
	"gzip_decomp":  "25691736be734f27c2f219aabfc39cd218bdb038d34c80bec745614fe6e11b12",
	"vpr_place":    "57e79cd024545732945a06ffacabfc3fb60d20f8e5a3df8e104c6ca2fe7132dc",
	"gcc":          "4fcf0dcb6fac9fbae6c40896d969119d72d5b873951c4f2cb48e8ca886113a81",
	"mcf":          "bec96111477f7a8b57bbc63025d189f004e27bf57271cf0d6d7b74f96f89c95f",
	"crafty":       "5d4ffbe65bb5a7548024c1acb2145a86ded55c265657a0949c70fa70aa2cf11f",
	"parser":       "7fbea3995c7ae2b708a41369dacf981e64791d5beade49ea9063236e2d4c2f84",
	"perlbmk":      "cd4a2962be7c0747ebf731b1a9a42807770be1a113a567d2aa99631f1ebdfcf5",
	"gap":          "208fb60ced1332c6a334cdfc50b9e53bb89080cc5ecf487fcc3415397c0dcbad",
	"bzip2_comp":   "0d6f4544fefb859511374760bdb5889823e4c625f6a7e1ea1484a5e9d15e6e4b",
	"bzip2_decomp": "fc41e1a62f2908ffed5dea45426e238dcfa32b142fb1288943e7ff7bb31f2bd2",
	"twolf":        "765c6bfe0bad73ad92a05eaff78bc1a183957e3b91aef4e72ee4402818b0f090",
}

// exactPolicies are the policy labels every figure draws from.
var exactPolicies = []string{"U", "T", "C", "E", "L", "O", "P", "H", "B"}

// exactResultsHash simulates one benchmark under every policy and
// hashes the sequential baseline, the JSON of each sim.Result, and the
// epoch spans of a C-policy timeline.
func exactResultsHash(t *testing.T, w *Workload) string {
	t.Helper()
	r, err := NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "seq %d %d %d\n", r.SeqRegion, r.SeqProgram, r.SeqOutside)
	for _, label := range exactPolicies {
		res, err := r.Simulate(label)
		if err != nil {
			t.Fatalf("%s/%s: %v", w.Name, label, err)
		}
		writeJSON(t, h, label, res)
	}
	tl, err := r.SimulateTimeline("C")
	if err != nil {
		t.Fatalf("%s timeline: %v", w.Name, err)
	}
	writeJSON(t, h, "timeline C", tl.Spans)
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(t *testing.T, h io.Writer, tag string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	fmt.Fprintf(h, "%s %d\n", tag, len(b))
	h.Write(b)
}

// TestExactResultsDigest is the byte-exactness gate for simulator
// changes (see exactResultsDigests).
func TestExactResultsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all 15 benchmarks under 9 policies")
	}
	ws := Benchmarks()
	if len(ws) != len(exactResultsDigests) {
		t.Errorf("%d benchmarks, %d pinned digests", len(ws), len(exactResultsDigests))
	}
	for _, w := range ws {
		if got, want := exactResultsHash(t, w), exactResultsDigests[w.Name]; got != want {
			t.Errorf("%s: simulator output digest %s, want %s: a sim.Result, the sequential baseline or the C timeline changed",
				w.Name, got, want)
		}
	}
}
