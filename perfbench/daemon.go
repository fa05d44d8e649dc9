package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one tlsd child process with its own cache dir, started with
// the default flags except address, serving set and cache dir.
type daemon struct {
	proc *child
	base string
	ctl  *http.Client // control requests (/readyz, /stats), never measured
}

// startTimeout bounds how long a tlsd start may take before the run fails.
const startTimeout = 60 * time.Second

// startDaemon launches tlsd serving benches (nil: the paper's 15), with
// its cache dir at dir/cache when durable and memory-only otherwise, and
// waits until /readyz answers 200. It returns the set-up time: process
// start until ready, which covers the store's disk scan and the journal
// replay of a durable daemon.
func startDaemon(bin, dir string, benches []string, durable bool) (*daemon, time.Duration, error) {
	portFile := filepath.Join(dir, "port")
	args := []string{"-addr", "127.0.0.1:0", "-portfile", portFile}
	if durable {
		args = append(args, "-cachedir", filepath.Join(dir, "cache"))
	}
	if len(benches) > 0 {
		args = append(args, "-benchmarks", strings.Join(benches, ","))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "tlsd.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Write back the benchmark's own dirty files first (a copied cache
	// dir), so the daemon's first fsync does not pay for them.
	syscall.Sync()
	start := time.Now()
	proc, err := startChild(cmd)
	if err != nil {
		return nil, 0, fmt.Errorf("start tlsd: %w", err)
	}
	d := &daemon{proc: proc, ctl: &http.Client{Timeout: startTimeout}}
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("tlsd (log %s): %w", logf.Name(), err)
	}
	// The port file appears once tlsd listens; a request sent then is
	// held in the listen backlog until the server is built and serving,
	// so /readyz answers as soon as set-up is done, without polling.
	for {
		data, err := os.ReadFile(portFile)
		if err == nil && strings.HasSuffix(string(data), "\n") {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		select {
		case <-proc.exited:
			return fail(fmt.Errorf("exited before listening: %v", proc.err))
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > startTimeout {
			return fail(fmt.Errorf("no port file after %v", startTimeout))
		}
	}
	for {
		resp, err := d.ctl.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > startTimeout {
			return fail(fmt.Errorf("not ready after %v (last error %v)", startTimeout, err))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the daemon and waits for it to exit. tlsd is crash-only,
// so SIGKILL is a supported way to stop it, and every request the
// benchmark sent has completed by the time it calls stop.
func (d *daemon) stop() { d.proc.kill() }

// peakRSSMB reads the daemon's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.proc.cmd.Process.Pid) }

// vmHWM returns the peak resident set size of a process in MB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// get sends one unmeasured request and returns the body and cache state
// of a 200 answer.
func get(d *daemon, path string) ([]byte, string, error) {
	resp, err := d.ctl.Get(d.base + path)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return body, resp.Header.Get("X-Tlsd-Cache"), err
}

// daemonStats is the part of tlsd's /stats the traced run compares and
// reports. Durations are nanoseconds, as time.Duration marshals.
type daemonStats struct {
	Store struct {
		Hits     int64 `json:"hits"`
		DiskHits int64 `json:"disk_hits"`
		Misses   int64 `json:"misses"`
		Puts     int64 `json:"puts"`
	} `json:"store"`
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Coalesced int64 `json:"coalesced"`
	} `json:"jobs"`
	Journal struct {
		Appends int64 `json:"appends"`
	} `json:"journal"`
	Admission struct {
		Shed int64 `json:"shed"`
	} `json:"admission"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.ctl.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// counts are layer counters as the daemon reports them in /stats and as
// the in-process replay observes them.
type counts struct {
	StoreHits, StoreMisses, StorePuts int64
	JournalAppends                    int64
	JobsSubmitted, JobsCoalesced      int64

	// Reported, but not part of the replay check: concurrent first reads
	// of one key may each go to disk, and nothing is shed under the
	// closed-loop load, so neither pins the replay to the daemon.
	StoreDiskHits, Shed int64
}

// delta returns the counters that moved between two /stats snapshots.
func delta(before, after daemonStats) counts {
	return counts{
		StoreHits:      after.Store.Hits - before.Store.Hits,
		StoreMisses:    after.Store.Misses - before.Store.Misses,
		StorePuts:      after.Store.Puts - before.Store.Puts,
		JournalAppends: after.Journal.Appends - before.Journal.Appends,
		JobsSubmitted:  after.Jobs.Submitted - before.Jobs.Submitted,
		JobsCoalesced:  after.Jobs.Coalesced - before.Jobs.Coalesced,
		StoreDiskHits:  after.Store.DiskHits - before.Store.DiskHits,
		Shed:           after.Admission.Shed - before.Admission.Shed,
	}
}

func (c counts) add(o counts) counts {
	return counts{
		StoreHits:      c.StoreHits + o.StoreHits,
		StoreMisses:    c.StoreMisses + o.StoreMisses,
		StorePuts:      c.StorePuts + o.StorePuts,
		JournalAppends: c.JournalAppends + o.JournalAppends,
		JobsSubmitted:  c.JobsSubmitted + o.JobsSubmitted,
		JobsCoalesced:  c.JobsCoalesced + o.JobsCoalesced,
		StoreDiskHits:  c.StoreDiskHits + o.StoreDiskHits,
		Shed:           c.Shed + o.Shed,
	}
}

// agree reports where the replay's counters differ from the daemon's
// (nil when they match): the replay check. A difference means the
// replay no longer makes the calls tlsd makes.
func agree(daemon, replay counts) []string {
	var diffs []string
	for _, f := range []struct {
		name string
		d, r int64
	}{
		{"store hits", daemon.StoreHits, replay.StoreHits},
		{"store misses", daemon.StoreMisses, replay.StoreMisses},
		{"store puts", daemon.StorePuts, replay.StorePuts},
		{"journal appends", daemon.JournalAppends, replay.JournalAppends},
		{"jobs submitted", daemon.JobsSubmitted, replay.JobsSubmitted},
		{"jobs coalesced", daemon.JobsCoalesced, replay.JobsCoalesced},
	} {
		if f.d != f.r {
			diffs = append(diffs, fmt.Sprintf("%s: daemon %d, replay %d", f.name, f.d, f.r))
		}
	}
	return diffs
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
