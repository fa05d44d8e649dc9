// Command tlsd serves the reproduction pipeline over HTTP: a
// simulation-as-a-service daemon in front of the compile→profile→
// simulate pipeline, backed by a content-addressed artifact store
// (internal/store) and a coalescing job engine (internal/jobs).
//
// Endpoints (all GET, all JSON):
//
//	/healthz                          liveness probe
//	/readyz                           readiness: ok / degraded / draining
//	/stats                            store, worker-pool, admission, breaker counters
//	/simulate?bench=NAME&policy=L     one (benchmark × policy) simulation
//	/figures/{id}                     a paper figure (2 6 7 8 9 10 11 12 T2)
//	/tables/{id}                      Table 1 or 2
//
// Warm requests are served straight from the store: repeated requests
// for an artifact do not run new simulation jobs, and with -cachedir
// artifacts survive restarts.
//
// A resilience layer guards the compute path: every request carries a
// -reqtimeout deadline, an admission gate sheds load with 429 +
// Retry-After once -queue requests are waiting, per-key circuit
// breakers answer 502 for benchmarks whose pipeline keeps failing, and
// shutdown drains gracefully (in-flight work completes, new compute
// gets 503). See docs/tlsd.md for examples and operations notes.
//
// The daemon is also crash-only: with -cachedir, a write-ahead journal
// records every simulation intent before it runs, and a process killed
// mid-job (SIGKILL, OOM, power loss) recovers on the next boot —
// incomplete jobs are replayed and re-enqueued, jobs that crash the
// process repeatedly are poisoned and quarantined behind a pre-opened
// breaker, torn journal tails are truncated, corrupt artifacts are
// quarantined (never served, never silently deleted), and a periodic
// -scrub pass verifies every on-disk checksum. See docs/tlsd.md,
// "Crash recovery".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; exposed only behind -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tlssync/internal/cluster"
	"tlssync/internal/fault"
	"tlssync/internal/store"
)

func main() {
	addr := flag.String("addr", ":8149", "listen address")
	workers := flag.Int("j", runtime.NumCPU(), "simulation worker-pool size")
	storeCap := flag.Int("cache", 512, "in-memory artifact-store capacity (entries)")
	cacheDir := flag.String("cachedir", "", "on-disk artifact-store directory (empty: memory only)")
	benches := flag.String("benchmarks", "", "comma-separated serving set (empty: all 15)")
	warm := flag.Bool("warm", false, "prepare every benchmark at startup instead of on demand")
	reqTimeout := flag.Duration("reqtimeout", 60*time.Second, "per-request deadline (0: none)")
	queue := flag.Int("queue", 64, "admission wait-queue depth before shedding with 429")
	scrub := flag.Duration("scrub", time.Minute, "disk-tier checksum scrub interval (0: off; needs -cachedir)")
	portFile := flag.String("portfile", "", "write the bound listen address to this file (atomically) once listening")
	nodeID := flag.String("node-id", "", "cluster node id (empty: single-node mode; see docs/cluster.md)")
	peers := flag.String("peers", "", "cluster membership: comma-separated node ids, optionally id=http://host:port")
	peersFile := flag.String("peersfile", "", "file with 'id address' lines, re-read on change (how dynamic ports are discovered)")
	joinURL := flag.String("join", "", "URL of an existing cluster member to join at startup (requires -node-id; -peers may then be empty)")
	ringReplicas := flag.Int("ring-replicas", 1, "artifact copies on ring successors beyond the owner")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "cluster heartbeat probe period")
	deadAfter := flag.Duration("dead-after", 0, "silence before a peer is declared dead (0: 4x heartbeat)")
	sweep := flag.Duration("sweep", 2*time.Second, "anti-entropy sweep period: digest exchange + replica repair (0: off)")
	pprofOn := flag.Bool("pprof", false,
		"serve net/http/pprof profiling endpoints under /debug/pprof/ (opt-in: profiling exposes internals)")
	enableFaults := flag.Bool("enable-fault-injection", false,
		"expose the fault-injection surface (-faults, TLSD_FAULTS, /_faults endpoints); for chaos testing only, never production")
	faultSpec := flag.String("faults", "",
		"fault spec to arm at startup, e.g. fs.read=latency:20ms:times=50;jobs.exec=error (requires -enable-fault-injection)")
	flag.Parse()

	var names []string
	if *benches != "" {
		for _, n := range strings.Split(*benches, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	cfg := config{
		workers:    *workers,
		storeCap:   *storeCap,
		cacheDir:   *cacheDir,
		benchmarks: names,
		reqTimeout: *reqTimeout,
		queueDepth: *queue,
		scrubEvery: *scrub,
	}

	// Listen early: cluster mode needs the bound address before the
	// server exists — the advertised self URL is gossiped to peers, and
	// a -join handshake must name it. With -addr :0 the kernel picks
	// the port. The portfile (written atomically, so a watcher never
	// reads a torn address) is how supervisors like tlssim discover it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tlsd: %v", err)
	}
	if *portFile != "" {
		if err := writeFileAtomic(*portFile, ln.Addr().String()+"\n"); err != nil {
			log.Fatalf("tlsd: portfile: %v", err)
		}
	}

	if *nodeID != "" {
		nodes, urls, err := parsePeers(*peers)
		if err != nil {
			log.Fatalf("tlsd: %v", err)
		}
		// Membership always includes self; listing it in -peers is
		// allowed but not required.
		hasSelf := false
		for _, n := range nodes {
			hasSelf = hasSelf || n == *nodeID
		}
		if !hasSelf {
			nodes = append(nodes, *nodeID)
		}
		cc := &clusterConfig{
			nodeID:    *nodeID,
			nodes:     nodes,
			urls:      urls,
			selfURL:   advertiseURL(ln.Addr().String()),
			peersFile: *peersFile,
			replicas:  *ringReplicas,
			heartbeat: *heartbeat,
			deadAfter: *deadAfter,
			sweep:     *sweep,
		}
		if *joinURL != "" {
			// Elastic join: ask a seed member to admit this node. The
			// answer is the authoritative member set this node boots with —
			// -peers (often empty for a joiner) only supplements it.
			view, err := joinCluster(*joinURL, cc.nodeID, cc.selfURL)
			if err != nil {
				log.Fatalf("tlsd: join %s: %v", *joinURL, err)
			}
			cc.nodes = view.Members
			cc.memberEpoch = view.MemberEpoch
			for id, u := range view.URLs {
				if _, have := cc.urls[id]; !have {
					cc.urls[id] = u
				}
			}
			log.Printf("tlsd: joined cluster via %s: member epoch %d, members %v",
				*joinURL, view.MemberEpoch, view.Members)
		}
		cfg.cluster = cc
	} else if *peers != "" || *peersFile != "" || *joinURL != "" {
		log.Fatal("tlsd: -peers/-peersfile/-join require -node-id")
	}

	// The fault-injection surface is opt-in and loud. A spec without the
	// enable flag is refused outright (not ignored): silently dropping an
	// armed chaos schedule would make a "passing" stress run meaningless.
	spec := *faultSpec
	if spec == "" {
		spec = os.Getenv("TLSD_FAULTS")
	}
	if !*enableFaults {
		if spec != "" {
			log.Fatal("tlsd: -faults/TLSD_FAULTS given without -enable-fault-injection; refusing to start")
		}
	} else {
		reg := fault.NewRegistry()
		// A Crash fault must kill the process exactly at its seam —
		// SIGKILL, not graceful shutdown — so crash-recovery scenarios
		// exercise the real journal-replay path.
		reg.SetKiller(func() { _ = syscall.Kill(os.Getpid(), syscall.SIGKILL) })
		cfg.fsys = &fault.FS{R: reg}
		cfg.jobWrap = fault.WrapJobs(reg)
		cfg.faults = reg
		if spec != "" {
			specs, err := fault.ParseSpec(spec)
			if err != nil {
				log.Fatalf("tlsd: -faults: %v", err)
			}
			fault.ArmAll(reg, specs)
			log.Printf("tlsd: FAULT INJECTION ENABLED, armed %q", spec)
		} else {
			log.Print("tlsd: FAULT INJECTION ENABLED (no faults armed; arm via POST /_faults/arm)")
		}
	}

	s, err := newServer(cfg)
	if err != nil {
		log.Fatalf("tlsd: %v", err)
	}
	if st := s.store.Stats(); st.DiskEntries > 0 || st.ScanTempsRemoved > 0 {
		log.Printf("tlsd: disk scan: %d artifact(s) warm from previous runs (%d crashed temp(s) reaped, %d malformed name(s) skipped)",
			st.DiskEntries, st.ScanTempsRemoved, st.ScanSkipped)
	}

	if *warm {
		go func() {
			start := time.Now()
			if _, err := s.prepareAll(context.Background()); err != nil {
				log.Printf("tlsd: warmup: %v", err)
				return
			}
			log.Printf("tlsd: warmed %d benchmarks in %v", len(s.workloads), time.Since(start).Round(time.Millisecond))
		}()
	}

	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers — without it, slowloris clients pin connections
	// (and eventually file descriptors) forever.
	var handler http.Handler = s
	if *pprofOn {
		// pprof registers itself on http.DefaultServeMux at import time;
		// route /debug/pprof/ there and everything else to the app, so
		// the profiler is reachable only when explicitly enabled.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", s)
		handler = mux
		log.Printf("tlsd: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go drainThenShutdown(srv, s, sig, 2*time.Second, 30*time.Second)

	disk := "memory-only"
	if *cacheDir != "" {
		disk = fmt.Sprintf("disk cache at %s", *cacheDir)
	}
	log.Printf("tlsd: serving %d benchmarks on %s (%d workers, %s)",
		len(s.workloads), ln.Addr(), s.eng.Workers(), disk)
	if s.cluster != nil {
		log.Printf("tlsd: cluster node %s (epoch %d) of %v, %d ring replica(s)",
			s.cluster.Self(), s.cluster.Epoch(), s.cluster.Ring().Nodes(), s.cluster.Replicas())
	}
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("tlsd: %v", err)
	}
}

// advertiseURL turns the bound listen address into a base URL peers
// can actually dial: an unspecified host (":8149", "0.0.0.0", "::")
// becomes loopback — the fleet harnesses are single-machine, and a
// multi-host deployment names an explicit -addr host anyway.
func advertiseURL(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "http://" + bound
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// joinCluster asks a seed member to admit this node, retrying briefly
// (the seed may itself still be booting). The answer is the
// authoritative member-set view the joiner boots with.
func joinCluster(seed, nodeID, selfURL string) (*cluster.MemberView, error) {
	if !strings.Contains(seed, "://") {
		seed = "http://" + seed
	}
	seed = strings.TrimSuffix(seed, "/")
	body, err := json.Marshal(map[string]string{"node": nodeID, "url": selfURL})
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Second}
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(300 * time.Millisecond)
		}
		resp, err := client.Post(seed+"/cluster/join", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		ans, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(ans)))
			continue
		}
		var view cluster.MemberView
		if err := json.Unmarshal(ans, &view); err != nil {
			lastErr = err
			continue
		}
		if view.MemberEpoch == 0 || len(view.Members) < 2 {
			lastErr = fmt.Errorf("implausible join answer: %+v", view)
			continue
		}
		return &view, nil
	}
	return nil, lastErr
}

// writeFileAtomic writes data to path via a temp file + rename, so a
// concurrent reader sees either nothing or the complete content. The
// port file is parent-process handshake plumbing written before the
// server (and any fault wiring) exists, so it goes through the
// production seam value directly.
func writeFileAtomic(path, data string) error {
	return store.WriteFileAtomic(store.OS, path, []byte(data), 0o755)
}

// drainThenShutdown is the graceful-shutdown path: on the first signal
// the server drains (in-flight work continues, new compute work gets
// 503, /readyz reports draining so load balancers stop routing here),
// then after a grace period the HTTP server shuts down, waiting up to
// timeout for in-flight responses to complete. The grace period exists
// because readiness changes take a moment to propagate — closing the
// listener immediately would turn would-be 503s into connection
// refusals.
func drainThenShutdown(srv *http.Server, s *server, sig <-chan os.Signal, grace, timeout time.Duration) {
	<-sig
	log.Print("tlsd: draining (in-flight work continues; new compute gets 503)")
	s.BeginDrain()
	time.Sleep(grace)
	log.Print("tlsd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_ = srv.Shutdown(ctx)
}
