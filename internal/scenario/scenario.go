package scenario

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tlssync"
	"tlssync/internal/workloads"
)

// Scenario is one parsed and validated scenario file.
type Scenario struct {
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	Duration    time.Duration `json:"duration"`
	Seed        uint64        `json:"seed"` // default seed; `tlssim run --seed` overrides
	Daemons     DaemonSpec    `json:"daemons"`
	Fleet       FleetSpec     `json:"fleet"`
	Faults      []FaultEvent  `json:"faults,omitempty"`
	Assert      Assertions    `json:"assertions"`
}

// DaemonSpec declares the tlsd processes under test.
type DaemonSpec struct {
	Count        int           `json:"count"`      // number of tlsd processes (default 1)
	Benchmarks   []string      `json:"benchmarks"` // serving set; `synth-<seed>` entries are progen-generated
	Workers      int           `json:"workers,omitempty"`
	Cache        int           `json:"cache,omitempty"`
	Queue        int           `json:"queue,omitempty"`         // admission queue depth (0: daemon default)
	ReqTimeout   time.Duration `json:"req_timeout,omitempty"`   // per-request deadline (0: daemon default)
	Warm         bool          `json:"warm,omitempty"`          // prewarm the serving set before the clock starts
	FaultSurface bool          `json:"fault_surface,omitempty"` // start with -enable-fault-injection (required by point/crash events)

	// Nodes turns the daemons into a consistent-hash cluster of N
	// members (n0..n<N-1>): each gets -node-id/-peers/-peersfile and
	// the fleet self-heals through adoption (see docs/cluster.md).
	// 0 keeps the daemons independent; >= 2 implies Count = Nodes.
	Nodes        int           `json:"nodes,omitempty"`
	RingReplicas int           `json:"ring_replicas,omitempty"` // artifact copies beyond the owner (0: tlsd default)
	Heartbeat    time.Duration `json:"heartbeat,omitempty"`     // cluster probe period (0: tlsd default)
	DeadAfter    time.Duration `json:"dead_after,omitempty"`    // silence before a peer is dead (0: tlsd default)
	Sweep        time.Duration `json:"sweep,omitempty"`         // anti-entropy sweep period (0: tlsd default)
}

// Cluster reports whether the daemons form a cluster.
func (ds *DaemonSpec) Cluster() bool { return ds.Nodes >= 2 }

// FleetSpec declares the synthetic client fleet.
type FleetSpec struct {
	Clients   int        `json:"clients"`
	Startup   Startup    `json:"startup"`
	Templates []Template `json:"templates"`
	// Retry opts the fleet into client-side retries: 429/503 answers
	// (honoring the server's Retry-After) and transient 5xx/transport
	// failures back off and re-issue instead of counting an immediate
	// failure. Zero value: no retries (every sample is one attempt).
	Retry RetrySpec `json:"retry,omitempty"`
}

// RetrySpec is the fleet's retry budget (see internal/httpretry).
type RetrySpec struct {
	Max  int           `json:"max,omitempty"`  // retries after the first attempt (0: disabled)
	Base time.Duration `json:"base,omitempty"` // first backoff (0: 50ms)
	Cap  time.Duration `json:"cap,omitempty"`  // per-delay ceiling (0: 2s)
}

// Startup is the fleet's arrival shape.
type Startup struct {
	// Pattern: instant (everyone at t=0), linear (constant arrival
	// rate), exponential (slow start, accelerating waves: 1, 2, 4, ...),
	// wave (equal batches separated by pauses).
	Pattern  string        `json:"pattern"`
	Duration time.Duration `json:"duration,omitempty"` // arrival window (0 with instant)
	Batches  int           `json:"batches,omitempty"`  // wave only (default 4)
}

// Template is one weighted client archetype: which benchmarks and
// policies its clients request (a mix over the SimSpec axes), against
// which endpoint, at what think-time rhythm.
type Template struct {
	Name     string   `json:"name"`
	Weight   float64  `json:"weight"`             // weights must sum to 1 across templates
	Bench    []string `json:"bench,omitempty"`    // choice set (default: the daemon serving set)
	Policy   []string `json:"policy,omitempty"`   // choice set (default: C)
	Endpoint string   `json:"endpoint,omitempty"` // simulate (default), stats, readyz
	Requests int      `json:"requests,omitempty"` // per-client cap (0: until duration)
	Think    Think    `json:"think"`
}

// Think is a client's think-time distribution between requests.
type Think struct {
	Dist string        `json:"dist"`           // fixed, uniform, exp
	Mean time.Duration `json:"mean,omitempty"` // fixed, exp
	Min  time.Duration `json:"min,omitempty"`  // uniform
	Max  time.Duration `json:"max,omitempty"`  // uniform
}

// FaultEvent is one scheduled injection or membership action.
type FaultEvent struct {
	At   time.Duration `json:"at"`
	Kind string        `json:"kind"` // point, kill, partition, slow_peer, join_node, decommission_node, rolling_restart
	// Target is the daemon index (node n<target> in a cluster). For
	// join_node it names the NEW daemon: joiners are numbered after the
	// initial nodes (the first join is daemons.nodes, the next one up).
	// rolling_restart walks every live node and ignores it.
	Target int           `json:"target"`
	Point  string        `json:"point,omitempty"`  // kind=point: fault-registry point (fs.read, jobs.simulate, ...)
	Effect string        `json:"effect,omitempty"` // kind=point: latency, error, panic, crash
	Delay  time.Duration `json:"delay,omitempty"`  // kind=point/slow_peer: injected latency; kind=kill: restart delay; kind=rolling_restart: pause between kill and restart per node
	Times  int           `json:"times,omitempty"`  // kind=point: firing budget (default 1)
	// Restart re-execs the killed daemon over the same cache dir after
	// Delay, exercising the crash-recovery path; recovery time (restart
	// to /readyz ok) feeds the recovery assertion.
	Restart bool `json:"restart,omitempty"`
	// Heal, for partition/slow_peer, disarms the cluster fault points
	// this long after arming them (fired counters are kept as
	// evidence). 0 leaves the fault armed to the end of the run.
	Heal time.Duration `json:"heal,omitempty"`
}

// ClusterFaultPoints are the fault-registry points partition and
// slow_peer events arm: every inbound and outbound peer call on the
// target node crosses one of them.
var ClusterFaultPoints = []string{"cluster.in", "cluster.out"}

// ArmSpecString renders a fault event as the textual arming spec the
// tlsd /_faults surface (and -faults flag) accepts:
// point=effect[:delay][:times=N].
//
// partition severs the target from its peers in both directions
// (unbounded error budget — the heal disarms it); slow_peer keeps the
// links up but adds Delay to every peer call.
func (e *FaultEvent) ArmSpecString() string {
	switch e.Kind {
	case "partition":
		return "cluster.in=error;cluster.out=error"
	case "slow_peer":
		d := e.Delay.String()
		return "cluster.in=latency:" + d + ";cluster.out=latency:" + d
	}
	s := e.Point + "=" + e.Effect
	if e.Effect == "latency" {
		s += ":" + e.Delay.String()
	}
	if e.Times > 0 {
		s += fmt.Sprintf(":times=%d", e.Times)
	}
	return s
}

// Assertions are the scenario's pass/fail criteria. Pointer fields are
// absent when the scenario does not assert them.
type Assertions struct {
	MaxP50       time.Duration `json:"max_p50,omitempty"`
	MaxP95       time.Duration `json:"max_p95,omitempty"`
	MaxP99       time.Duration `json:"max_p99,omitempty"`
	MaxErrorRate *float64      `json:"max_error_rate,omitempty"`     // (5xx + transport errors) / total
	MinHitRate   *float64      `json:"min_cache_hit_rate,omitempty"` // simulate-endpoint store hits / (hits+misses)
	MaxShedRate  *float64      `json:"max_shed_rate,omitempty"`      // (429 + 503) / total
	MinShed      *int64        `json:"min_shed,omitempty"`           // floor on sheds (burst scenarios must actually shed)
	MaxRecovery  time.Duration `json:"max_recovery,omitempty"`       // restart → /readyz ok bound
	MinInjected  *int64        `json:"min_faults_injected,omitempty"`
	Converged    *bool         `json:"readyz_converged,omitempty"`     // final /readyz must be ok on every daemon
	NoCorrupt    *bool         `json:"no_corrupt_artifacts,omitempty"` // final quarantined count must be 0

	// Cluster assertions (require daemons.nodes >= 2).
	MinAdoptions *int64 `json:"min_adoptions,omitempty"`         // completed dead-node job adoptions across the fleet
	MaxKeyExec   *int64 `json:"max_key_executions,omitempty"`    // per-key execution ceiling summed across nodes (1 = zero double-compute)
	ClusterOK    *bool  `json:"cluster_converged,omitempty"`     // final view: every node sees quorum and the whole fleet alive
	NoLostJobs   *bool  `json:"no_lost_jobs,omitempty"`          // final journal pending must be 0 everywhere, every adoption completed
	RepConverged *bool  `json:"replication_converged,omitempty"` // every artifact present on every member of its replica chain
	NoOrphans    *bool  `json:"no_orphaned_artifacts,omitempty"` // no artifact stranded with zero copies on its replica chain

	// Settle bounds a post-run convergence wait: before the final
	// cluster scrape the runner polls until membership agrees,
	// replication has healed and journals drained — or this long has
	// passed. Runtime-only; the deterministic report is unaffected.
	Settle time.Duration `json:"settle,omitempty"`
}

// Load reads, parses and validates a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// Parse parses and validates scenario bytes; file is used in error
// positions.
func Parse(file string, data []byte) (*Scenario, error) {
	root, err := parseYAML(file, data)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{}
	if err := decode(file, root, reflect.ValueOf(sc).Elem(), ""); err != nil {
		return nil, err
	}
	if err := sc.validate(file); err != nil {
		return nil, err
	}
	return sc, nil
}

// Defaults. Each applies when its struct's mapping is present in the
// file; an absent mapping leaves the zero value for validate to judge.
// A present mapping starts from these, not from its parent's defaults:
// `think: {dist: uniform, ...}` has no mean even though a template
// without `think:` gets 100ms.

func (ds *DaemonSpec) setDefaults() { ds.Count = 1 }
func (fs *FleetSpec) setDefaults()  { fs.Startup.setDefaults() }
func (st *Startup) setDefaults()    { st.Pattern = "instant" }
func (th *Think) setDefaults()      { th.Dist = "fixed" }
func (ev *FaultEvent) setDefaults() { ev.Times = 1 }
func (t *Template) setDefaults() {
	t.Endpoint = "simulate"
	t.Think = Think{Dist: "fixed", Mean: 100 * time.Millisecond}
}

var durationType = reflect.TypeFor[time.Duration]()

// decode fills v from the node tree n; file and path name v in errors
// (fleet.templates[1].think). A struct's keys are the names in its
// fields' json tags, so the file and the report's JSON share one
// spelling. Every mapping is strict: an unknown key is an error naming
// the key, its line and the known keys.
func decode(file string, n *node, v reflect.Value, path string) error {
	fail := func(line int, format string, args ...any) error {
		ctx := path
		if ctx == "" {
			ctx = "scenario"
		}
		return errAt(file, line, "%s: "+format, append([]any{ctx}, args...)...)
	}
	switch v.Kind() {
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if err := decode(file, n, p.Elem(), path); err != nil {
			return err
		}
		v.Set(p)
		return nil
	case reflect.Struct:
		if n.kind != mapNode {
			return fail(n.line, "expected a mapping, got a %s", n.kindName())
		}
		v.SetZero()
		if def, ok := v.Addr().Interface().(interface{ setDefaults() }); ok {
			def.setDefaults()
		}
		keys := make([]string, v.NumField())
		for i := range keys {
			keys[i], _, _ = strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		}
		for i, k := range n.keys {
			f := slices.Index(keys, k)
			if f < 0 {
				return fail(n.keyLines[i], "unknown key %q (known keys: %s)", k, strings.Join(keys, ", "))
			}
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			if err := decode(file, n.vals[i], v.Field(f), sub); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice:
		if n.kind == scalarNode && v.Type().Elem().Kind() == reflect.String {
			// A single scalar is a one-element list; commas split.
			var out []string
			for _, s := range strings.Split(n.scalar, ",") {
				if s = strings.TrimSpace(s); s != "" {
					out = append(out, s)
				}
			}
			v.Set(reflect.ValueOf(out))
			return nil
		}
		if n.kind != seqNode {
			return fail(n.line, "expected a sequence, got a %s", n.kindName())
		}
		items := reflect.MakeSlice(v.Type(), len(n.items), len(n.items))
		for i, it := range n.items {
			if err := decode(file, it, items.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		v.Set(items)
		return nil
	}

	if n.kind != scalarNode {
		return fail(n.line, "expected a scalar, got a %s", n.kindName())
	}
	s := n.scalar
	switch {
	case v.Type() == durationType:
		dur, err := time.ParseDuration(s)
		if err != nil {
			return fail(n.line, "bad duration %q (want e.g. 500ms, 10s, 2m)", s)
		}
		if dur < 0 {
			return fail(n.line, "negative duration %q", s)
		}
		v.SetInt(int64(dur))
	case v.Kind() == reflect.String:
		v.SetString(s)
	case v.Kind() == reflect.Bool:
		switch s {
		case "true", "yes", "on":
			v.SetBool(true)
		case "false", "no", "off":
			v.SetBool(false)
		default:
			return fail(n.line, "bad boolean %q (want true or false)", s)
		}
	case v.CanInt():
		i, err := strconv.ParseInt(s, 10, v.Type().Bits())
		if err != nil {
			return fail(n.line, "bad integer %q", s)
		}
		v.SetInt(i)
	case v.CanUint():
		u, err := strconv.ParseUint(s, 10, v.Type().Bits())
		if err != nil {
			return fail(n.line, "bad integer %q", s)
		}
		v.SetUint(u)
	case v.CanFloat():
		// NaN would pass every range check in validate and then fail
		// to marshal into the report.
		f, err := strconv.ParseFloat(s, v.Type().Bits())
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fail(n.line, "bad number %q", s)
		}
		v.SetFloat(f)
	default:
		return fail(n.line, "unsupported field type %s", v.Type())
	}
	return nil
}

// --- validation ---

func validBench(name string) bool {
	if _, ok := workloads.SynthSeed(name); ok {
		return true
	}
	_, err := workloads.ByName(name)
	return err == nil
}

// validate enforces the DSL's semantic rules; file names error positions
// (validation errors are scenario-level, so they carry no line).
func (sc *Scenario) validate(file string) error {
	fail := func(format string, args ...any) error {
		return errAt(file, 0, format, args...)
	}
	if sc.Name == "" {
		return fail("scenario needs a name")
	}
	if sc.Duration <= 0 {
		return fail("scenario needs a positive duration")
	}
	if sc.Daemons.Count <= 0 {
		return fail("daemons.count must be >= 1")
	}
	switch {
	case sc.Daemons.Nodes == 0:
		if sc.Daemons.RingReplicas != 0 || sc.Daemons.Heartbeat != 0 || sc.Daemons.DeadAfter != 0 || sc.Daemons.Sweep != 0 {
			return fail("daemons.ring_replicas/heartbeat/dead_after/sweep need daemons.nodes >= 2 (cluster mode)")
		}
	case sc.Daemons.Nodes == 1:
		return fail("daemons.nodes must be >= 2 (a one-node cluster is just a daemon; drop the key)")
	default:
		if sc.Daemons.Count > 1 && sc.Daemons.Count != sc.Daemons.Nodes {
			return fail("daemons.count %d conflicts with daemons.nodes %d (nodes implies the count; drop one)",
				sc.Daemons.Count, sc.Daemons.Nodes)
		}
		// Cluster mode: the node count IS the daemon count. Normalized
		// here so the planner and runner need no second field.
		sc.Daemons.Count = sc.Daemons.Nodes
		if sc.Daemons.RingReplicas < 0 || sc.Daemons.RingReplicas >= sc.Daemons.Nodes {
			return fail("daemons.ring_replicas %d out of range (want 0 <= r < nodes)", sc.Daemons.RingReplicas)
		}
	}
	if sc.Fleet.Retry.Max < 0 {
		return fail("fleet.retry.max must be >= 0")
	}
	if len(sc.Daemons.Benchmarks) == 0 {
		return fail("daemons.benchmarks must name at least one benchmark")
	}
	for _, b := range sc.Daemons.Benchmarks {
		if !validBench(b) {
			return fail("daemons.benchmarks: unknown benchmark %q (want one of %s, or synth-<seed>)",
				b, strings.Join(workloads.Names(), ", "))
		}
	}
	if sc.Fleet.Clients <= 0 {
		return fail("fleet.clients must be >= 1 (empty fleets run nothing)")
	}
	if len(sc.Fleet.Templates) == 0 {
		return fail("fleet.templates must declare at least one template (empty fleets run nothing)")
	}
	switch sc.Fleet.Startup.Pattern {
	case "instant", "linear", "exponential", "wave":
	default:
		return fail("fleet.startup.pattern %q unknown (want instant, linear, exponential or wave)", sc.Fleet.Startup.Pattern)
	}
	if sc.Fleet.Startup.Pattern != "instant" && sc.Fleet.Startup.Duration <= 0 {
		return fail("fleet.startup.pattern %q needs a positive fleet.startup.duration", sc.Fleet.Startup.Pattern)
	}
	if sc.Fleet.Startup.Duration > sc.Duration {
		return fail("fleet.startup.duration %v exceeds the scenario duration %v", sc.Fleet.Startup.Duration, sc.Duration)
	}
	if sc.Fleet.Startup.Batches < 0 {
		return fail("fleet.startup.batches must be >= 0")
	}

	sum := 0.0
	for i, t := range sc.Fleet.Templates {
		ctx := fmt.Sprintf("fleet.templates[%d]", i)
		if t.Name == "" {
			return fail("%s needs a name", ctx)
		}
		if t.Weight <= 0 {
			return fail("%s (%s): weight must be > 0", ctx, t.Name)
		}
		sum += t.Weight
		for _, b := range t.Bench {
			if !validBench(b) {
				return fail("%s (%s): unknown benchmark %q", ctx, t.Name, b)
			}
			if !slices.Contains(sc.Daemons.Benchmarks, b) {
				return fail("%s (%s): benchmark %q is not in the daemon serving set", ctx, t.Name, b)
			}
		}
		for _, p := range t.Policy {
			// Rejected here so a bad policy fails `tlssim validate`,
			// not a 400 mid-run.
			if !slices.Contains(tlssync.PolicyLabels, p) {
				return fail("%s (%s): unknown policy %q (want one of %s)", ctx, t.Name, p, strings.Join(tlssync.PolicyLabels, " "))
			}
		}
		switch t.Endpoint {
		case "simulate", "stats", "readyz":
		default:
			return fail("%s (%s): unknown endpoint %q (want simulate, stats or readyz)", ctx, t.Name, t.Endpoint)
		}
		if t.Requests < 0 {
			return fail("%s (%s): requests must be >= 0", ctx, t.Name)
		}
		switch t.Think.Dist {
		case "fixed", "exp":
			if t.Think.Mean <= 0 {
				return fail("%s (%s): think.dist %q needs a positive think.mean", ctx, t.Name, t.Think.Dist)
			}
		case "uniform":
			if t.Think.Max <= 0 || t.Think.Min > t.Think.Max {
				return fail("%s (%s): think.dist uniform needs 0 <= min <= max with max > 0", ctx, t.Name)
			}
		default:
			return fail("%s (%s): unknown think.dist %q (want fixed, uniform or exp)", ctx, t.Name, t.Think.Dist)
		}
	}
	if math.Abs(sum-1.0) > 1e-6 {
		return fail("fleet.templates weights sum to %g, want exactly 1", sum)
	}

	// join_node events grow the fleet: joiners are numbered after the
	// initial nodes, in file order, so every daemon index is known up
	// front and later events may target joined nodes.
	totalNodes := sc.Daemons.Count
	for i, ev := range sc.Faults {
		if ev.Kind != "join_node" {
			continue
		}
		ctx := fmt.Sprintf("faults[%d]", i)
		if !sc.Daemons.Cluster() {
			return fail("%s: kind join_node needs daemons.nodes >= 2 (there is no cluster to join)", ctx)
		}
		if ev.Target != totalNodes {
			return fail("%s: join_node target %d must be the next free daemon index %d (joiners are numbered after the initial nodes, in file order)",
				ctx, ev.Target, totalNodes)
		}
		totalNodes++
	}

	needsSurface := false
	for i, ev := range sc.Faults {
		ctx := fmt.Sprintf("faults[%d]", i)
		if ev.At > sc.Duration {
			return fail("%s: at %v is after the scenario duration %v", ctx, ev.At, sc.Duration)
		}
		if ev.Target < 0 || ev.Target >= totalNodes {
			return fail("%s: target %d out of range (daemons.count is %d, plus %d join(s))",
				ctx, ev.Target, sc.Daemons.Count, totalNodes-sc.Daemons.Count)
		}
		switch ev.Kind {
		case "point":
			if ev.Point == "" {
				return fail("%s: kind point needs a fault-registry point (e.g. fs.read, jobs.simulate)", ctx)
			}
			switch ev.Effect {
			case "latency":
				if ev.Delay <= 0 {
					return fail("%s: effect latency needs a positive delay", ctx)
				}
			case "error", "panic", "crash":
			default:
				return fail("%s: unknown effect %q (want latency, error, panic or crash)", ctx, ev.Effect)
			}
			if ev.Times <= 0 {
				return fail("%s: times must be >= 1", ctx)
			}
			needsSurface = true
		case "kill":
			if ev.Restart && ev.Delay < 0 {
				return fail("%s: negative restart delay", ctx)
			}
		case "partition", "slow_peer":
			if !sc.Daemons.Cluster() {
				return fail("%s: kind %s needs daemons.nodes >= 2 (there are no peer links to fault)", ctx, ev.Kind)
			}
			if ev.Kind == "slow_peer" && ev.Delay <= 0 {
				return fail("%s: kind slow_peer needs a positive delay (the latency added to every peer call)", ctx)
			}
			if ev.Heal > 0 && ev.At+ev.Heal > sc.Duration {
				return fail("%s: heal at %v is after the scenario duration %v (the run would end still faulted)",
					ctx, ev.At+ev.Heal, sc.Duration)
			}
			needsSurface = true
		case "join_node":
			// Cluster gating and index numbering validated in the pre-pass.
		case "decommission_node":
			if !sc.Daemons.Cluster() {
				return fail("%s: kind decommission_node needs daemons.nodes >= 2 (there is no cluster to leave)", ctx)
			}
		case "rolling_restart":
			if !sc.Daemons.Cluster() {
				return fail("%s: kind rolling_restart needs daemons.nodes >= 2 (restarting one daemon is just kill+restart)", ctx)
			}
			if ev.Target != 0 {
				return fail("%s: rolling_restart walks every live node; drop the target", ctx)
			}
		default:
			return fail("%s: unknown kind %q (want point, kill, partition, slow_peer, join_node, decommission_node or rolling_restart)", ctx, ev.Kind)
		}
		if ev.Heal > 0 && ev.Kind != "partition" && ev.Kind != "slow_peer" {
			return fail("%s: heal only applies to partition/slow_peer events", ctx)
		}
	}
	if needsSurface && !sc.Daemons.FaultSurface {
		return fail("faults include point injections but daemons.fault_surface is false (tlsd refuses external arming without -enable-fault-injection)")
	}

	a := sc.Assert
	for _, r := range []struct {
		name string
		v    *float64
	}{{"max_error_rate", a.MaxErrorRate}, {"min_cache_hit_rate", a.MinHitRate}, {"max_shed_rate", a.MaxShedRate}} {
		if r.v != nil && (*r.v < 0 || *r.v > 1) {
			return fail("assertions.%s must be in [0, 1]", r.name)
		}
	}
	if a.MaxRecovery > 0 && !hasRestart(sc.Faults) {
		return fail("assertions.max_recovery is set but no fault event restarts a daemon")
	}
	if !sc.Daemons.Cluster() {
		switch {
		case a.MinAdoptions != nil:
			return fail("assertions.min_adoptions needs daemons.nodes >= 2 (adoption is a cluster behavior)")
		case a.MaxKeyExec != nil:
			return fail("assertions.max_key_executions needs daemons.nodes >= 2")
		case a.ClusterOK != nil:
			return fail("assertions.cluster_converged needs daemons.nodes >= 2")
		case a.NoLostJobs != nil:
			return fail("assertions.no_lost_jobs needs daemons.nodes >= 2")
		case a.RepConverged != nil:
			return fail("assertions.replication_converged needs daemons.nodes >= 2 (replication is a cluster behavior)")
		case a.NoOrphans != nil:
			return fail("assertions.no_orphaned_artifacts needs daemons.nodes >= 2")
		case a.Settle > 0:
			return fail("assertions.settle needs daemons.nodes >= 2 (only cluster scrapes settle)")
		}
	}
	if a.MaxKeyExec != nil && *a.MaxKeyExec < 1 {
		return fail("assertions.max_key_executions must be >= 1 (every served key executes at least once)")
	}
	return nil
}

func hasRestart(evs []FaultEvent) bool {
	for _, ev := range evs {
		if (ev.Kind == "kill" && ev.Restart) || ev.Kind == "rolling_restart" {
			return true
		}
	}
	return false
}

// SortedFaults returns the fault schedule ordered by time (stable for
// equal times, preserving file order).
func (sc *Scenario) SortedFaults() []FaultEvent {
	out := make([]FaultEvent, len(sc.Faults))
	copy(out, sc.Faults)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
