package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenPath holds the decoded form of every shipped scenario plus the
// validScenario fixture. The deterministic report embeds the decoded
// Scenario, so any change to these bytes moves what `make
// scenario-smoke` and `make cluster-smoke` compare.
const goldenPath = "testdata/scenarios.golden.json"

// minimalScenario omits every key that has a default, so the golden
// file pins the defaults themselves: one daemon, instant startup, the
// simulate endpoint, a fixed 100ms think time, and one firing per
// fault. Its single-scalar serving set also pins comma splitting.
const minimalScenario = `
name: minimal
duration: 1s
daemons:
  benchmarks: gzip_comp, mcf
fleet:
  clients: 1
  templates:
    - name: only
      weight: 1
faults:
  - at: 0s
    kind: kill
`

// decodedScenarios parses every scenarios/*.yaml and the fixtures,
// keyed by file or fixture name, and renders them as indented JSON.
func decodedScenarios(t *testing.T) []byte {
	t.Helper()
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	all := map[string]*Scenario{}
	for _, f := range files {
		sc, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		all[filepath.Base(f)] = sc
	}
	for name, src := range map[string]string{"validScenario": validScenario, "minimalScenario": minimalScenario} {
		sc, err := Parse(name, []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		all[name] = sc
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestParseGolden pins the decoder: every field of every shipped
// scenario, defaults included, must decode to the committed JSON.
func TestParseGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodedScenarios(t); !bytes.Equal(got, want) {
		t.Errorf("decoded scenarios differ from %s; got:\n%s", goldenPath, got)
	}
}
