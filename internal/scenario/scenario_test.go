package scenario

import (
	"strings"
	"testing"
	"time"
)

// validScenario is a minimal scenario that passes validation; the
// error-case tests below mutate one aspect at a time.
const validScenario = `
name: demo
description: a valid scenario
duration: 10s
seed: 7
daemons:
  count: 1
  benchmarks: [gzip_comp, mcf]
  fault_surface: true
fleet:
  clients: 8
  startup:
    pattern: wave
    duration: 2s
    batches: 4
  templates:
    - name: readers
      weight: 0.75
      bench: [gzip_comp]
      policy: [C, E]
      think: {dist: exp, mean: 50ms}
    - name: pollers
      weight: 0.25
      endpoint: stats
      think: {dist: fixed, mean: 200ms}
faults:
  - at: 3s
    kind: point
    point: fs.read
    effect: latency
    delay: 20ms
    times: 5
  - at: 5s
    kind: kill
    restart: true
    delay: 100ms
assertions:
  max_p99: 5s
  max_error_rate: 0.1
  min_cache_hit_rate: 0.2
  max_recovery: 8s
  readyz_converged: true
  no_corrupt_artifacts: true
`

func TestParseValidScenario(t *testing.T) {
	sc, err := Parse("demo.yaml", []byte(validScenario))
	if err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	if sc.Name != "demo" || sc.Duration != 10*time.Second || sc.Seed != 7 {
		t.Errorf("header parsed wrong: %+v", sc)
	}
	if len(sc.Daemons.Benchmarks) != 2 || !sc.Daemons.FaultSurface {
		t.Errorf("daemons parsed wrong: %+v", sc.Daemons)
	}
	if sc.Fleet.Clients != 8 || sc.Fleet.Startup.Pattern != "wave" || len(sc.Fleet.Templates) != 2 {
		t.Errorf("fleet parsed wrong: %+v", sc.Fleet)
	}
	tpl := sc.Fleet.Templates[0]
	if tpl.Weight != 0.75 || tpl.Think.Dist != "exp" || tpl.Think.Mean != 50*time.Millisecond {
		t.Errorf("template parsed wrong: %+v", tpl)
	}
	if len(sc.Faults) != 2 || sc.Faults[0].Effect != "latency" || !sc.Faults[1].Restart {
		t.Errorf("faults parsed wrong: %+v", sc.Faults)
	}
	if sc.Assert.MaxP99 != 5*time.Second || *sc.Assert.MaxErrorRate != 0.1 || !*sc.Assert.Converged {
		t.Errorf("assertions parsed wrong: %+v", sc.Assert)
	}
}

// replace swaps one line fragment of the valid scenario.
func replace(t testing.TB, old, new string) string {
	t.Helper()
	if !strings.Contains(validScenario, old) {
		t.Fatalf("test bug: %q not in the valid scenario", old)
	}
	return strings.Replace(validScenario, old, new, 1)
}

// validateErrorCase is one malformed scenario and a required
// substring of its error.
type validateErrorCase struct {
	name string
	src  string
	want string
}

// validateErrorCases are the malformed scenarios of TestValidateErrors,
// shared with FuzzParse as seeds.
func validateErrorCases(t testing.TB) []validateErrorCase {
	return []validateErrorCase{
		{
			name: "unknown top-level key",
			src:  validScenario + "bogus: 1\n",
			want: `unknown key "bogus"`,
		},
		{
			name: "unknown nested key is positional",
			src:  replace(t, "  count: 1", "  coutn: 1"),
			want: `daemons: unknown key "coutn"`,
		},
		{
			name: "unknown template key",
			src:  replace(t, "      endpoint: stats", "      endpoitn: stats"),
			want: `fleet.templates[1]: unknown key "endpoitn"`,
		},
		{
			name: "bad duration",
			src:  replace(t, "duration: 10s", "duration: ten seconds"),
			want: "bad duration",
		},
		{
			name: "bad think duration",
			src:  replace(t, "{dist: exp, mean: 50ms}", "{dist: exp, mean: fast}"),
			want: "bad duration",
		},
		{
			name: "negative duration",
			src:  replace(t, "duration: 10s", "duration: -10s"),
			want: "negative duration",
		},
		{
			name: "weights must sum to 1",
			src:  replace(t, "weight: 0.75", "weight: 0.5"),
			want: "weights sum to 0.75, want exactly 1",
		},
		{
			name: "NaN weight",
			src:  replace(t, "weight: 0.25", "weight: NaN"),
			want: `bad number "NaN"`,
		},
		{
			name: "zero weight",
			src:  replace(t, "weight: 0.25", "weight: 0"),
			want: "weight must be > 0",
		},
		{
			name: "empty fleet: no clients",
			src:  replace(t, "clients: 8", "clients: 0"),
			want: "fleet.clients must be >= 1",
		},
		{
			name: "empty fleet: no templates",
			src: `
name: demo
duration: 5s
daemons:
  benchmarks: [mcf]
fleet:
  clients: 4
`,
			want: "fleet.templates must declare at least one template",
		},
		{
			name: "unknown benchmark",
			src:  replace(t, "benchmarks: [gzip_comp, mcf]", "benchmarks: [gzip_comp, mdf]"),
			want: `unknown benchmark "mdf"`,
		},
		{
			name: "template bench outside serving set",
			src:  replace(t, "bench: [gzip_comp]", "bench: [parser]"),
			want: "not in the daemon serving set",
		},
		{
			name: "unknown policy",
			src:  replace(t, "policy: [C, E]", "policy: [C, Z]"),
			want: `unknown policy "Z"`,
		},
		{
			name: "unknown startup pattern",
			src:  replace(t, "pattern: wave", "pattern: tsunami"),
			want: `pattern "tsunami" unknown`,
		},
		{
			name: "startup window exceeds scenario",
			src:  replace(t, "    duration: 2s", "    duration: 20s"),
			want: "exceeds the scenario duration",
		},
		{
			name: "unknown think dist",
			src:  replace(t, "{dist: exp, mean: 50ms}", "{dist: gaussian, mean: 50ms}"),
			want: `unknown think.dist "gaussian"`,
		},
		{
			name: "unknown endpoint",
			src:  replace(t, "endpoint: stats", "endpoint: figures"),
			want: `unknown endpoint "figures"`,
		},
		{
			name: "fault after the end",
			src:  replace(t, "  - at: 3s", "  - at: 30s"),
			want: "after the scenario duration",
		},
		{
			name: "fault target out of range",
			src:  replace(t, "    kind: kill", "    kind: kill\n    target: 3"),
			want: "target 3 out of range",
		},
		{
			name: "unknown fault kind",
			src:  replace(t, "kind: point", "kind: meteor"),
			want: `unknown kind "meteor"`,
		},
		{
			name: "unknown fault effect",
			src:  replace(t, "effect: latency", "effect: gravity"),
			want: `unknown effect "gravity"`,
		},
		{
			name: "latency effect needs delay",
			src:  replace(t, "    delay: 20ms\n", ""),
			want: "effect latency needs a positive delay",
		},
		{
			name: "point faults need the fault surface",
			src:  replace(t, "  fault_surface: true\n", ""),
			want: "daemons.fault_surface is false",
		},
		{
			name: "rate out of range",
			src:  replace(t, "max_error_rate: 0.1", "max_error_rate: 1.5"),
			want: "must be in [0, 1]",
		},
		{
			name: "recovery assertion without a restart",
			src:  replace(t, "    restart: true\n", ""),
			want: "no fault event restarts a daemon",
		},
		{
			name: "missing name",
			src:  replace(t, "name: demo\n", ""),
			want: "scenario needs a name",
		},
		{
			name: "missing duration",
			src:  replace(t, "duration: 10s\n", ""),
			want: "positive duration",
		},
	}
}

// TestValidateErrors is the DSL's error-message contract: every way a
// scenario can be malformed fails `tlssim validate` with a message that
// names the file and, for syntactic errors, the line.
func TestValidateErrors(t *testing.T) {
	for _, tc := range validateErrorCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("bad.yaml", []byte(tc.src))
			if err == nil {
				t.Fatalf("scenario accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "bad.yaml") {
				t.Errorf("error %q does not name the file", err)
			}
		})
	}
}

// TestValidateErrorLines pins that syntactic errors carry the offending
// line number, not just the file.
func TestValidateErrorLines(t *testing.T) {
	src := "name: x\nduration: 5s\ndaemons:\n  benchmarks: [mcf]\n  tpyo: 1\n"
	_, err := Parse("pos.yaml", []byte(src))
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "pos.yaml:5") {
		t.Errorf("error %q does not carry pos.yaml:5", err)
	}
}

func TestSortedFaults(t *testing.T) {
	sc := &Scenario{Faults: []FaultEvent{
		{At: 5 * time.Second, Kind: "kill"},
		{At: time.Second, Kind: "point", Point: "a"},
		{At: time.Second, Kind: "point", Point: "b"},
	}}
	got := sc.SortedFaults()
	if got[0].Point != "a" || got[1].Point != "b" || got[2].Kind != "kill" {
		t.Errorf("SortedFaults order wrong: %+v", got)
	}
}
