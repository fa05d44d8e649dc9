package main

import (
	"fmt"
	"runtime"

	"tlssync"
	"tlssync/internal/ir"
	"tlssync/internal/lang"
	"tlssync/internal/profile"
	"tlssync/internal/sim"
	"tlssync/internal/trace"
	"tlssync/internal/verify"
)

// computeCounts are the work counts the compute-layer replay observes,
// the denominators of its per-event metrics.
type computeCounts struct {
	Compiles      int
	TraceEvents   int64 // events produced by interp
	ProfileEvents int64 // events analysed by profile
	SimCalls      int
	SimEvents     int64 // events replayed by sim.Simulate
	SimAllocs     uint64
	SimBytes      uint64
}

// labelBinary is the binary tlssync simulates a named policy on.
// TestLabelTablesMatchRunSimulate pins it to Run.Simulate.
var labelBinary = map[string]string{
	"U": "base", "O": "base", "H": "base", "P": "base",
	"T": "train",
	"C": "ref", "E": "ref", "L": "ref", "B": "ref",
}

// labelPolicy is the simulator policy tlssync runs for a named policy,
// as Run.LabelSpec builds it. LabelSpec derives the policy from the
// label alone, so an unprepared Run serves.
func labelPolicy(label string) sim.Policy { return new(tlssync.Run).LabelSpec(label).Policy }

// replayLayers runs each workload's pipeline serially through the public
// call of every layer, with a span around each: parse and check
// (lang), Compile (core, which runs lang, regions, scalarsync, memsync
// and verify inside), verify.Binary on the four binaries, Build.Trace
// for every binary the policies need (interp), profile.Analyze on the
// base binary's train and ref traces, the sequential baseline and one
// sim.Simulate per label. It runs serially so the allocation counters
// read around each simulation belong to it alone.
func replayLayers(rec *recorder, ws []*tlssync.Workload, labels []string) (computeCounts, error) {
	var cc computeCounts
	for _, w := range ws {
		if err := replayProgram(rec, w, labels, &cc); err != nil {
			return cc, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	return cc, nil
}

func replayProgram(rec *recorder, w *tlssync.Workload, labels []string, cc *computeCounts) error {
	root := rec.begin("program", -1)
	defer rec.end(root)
	var err error
	rec.timed("lang.parse", root, func(int) {
		var f *lang.File
		if f, err = lang.Parse(w.Source); err == nil {
			_, err = lang.Check(f)
		}
	})
	if err != nil {
		return err
	}
	var b *tlssync.Build
	rec.timed("core.compile", root, func(int) {
		b, err = tlssync.Compile(tlssync.Config{Source: w.Source, TrainInput: w.Train, RefInput: w.Ref, Seed: 42})
	})
	if err != nil {
		return err
	}
	cc.Compiles++
	binaries := map[string]*ir.Program{"plain": b.Plain, "base": b.Base, "train": b.Train, "ref": b.Ref}
	for _, name := range []string{"plain", "base", "train", "ref"} {
		p := binaries[name]
		rec.timed("verify.binary", root, func(int) {
			verify.Binary(p, b.RegionsFor(p), verify.Options{CloneEnabled: true, Binary: name})
		})
	}

	traces := make(map[string]*trace.ProgramTrace)
	defer func() {
		for _, tr := range traces {
			tr.Release()
		}
	}()
	traceOf := func(key string, p *ir.Program, input []int64) error {
		var tr *trace.ProgramTrace
		var err error
		rec.timed("interp.trace", root, func(int) { tr, err = b.Trace(p, input) })
		if err != nil {
			return fmt.Errorf("trace %s: %w", key, err)
		}
		traces[key] = tr
		cc.TraceEvents += int64(tr.Events())
		return nil
	}
	if err := traceOf("plain", b.Plain, w.Ref); err != nil {
		return err
	}
	if err := traceOf("base-train", b.Base, w.Train); err != nil {
		return err
	}
	for _, l := range labels {
		bin := labelBinary[l]
		if traces[bin] == nil {
			if err := traceOf(bin, binaries[bin], w.Ref); err != nil {
				return err
			}
		}
	}
	if traces["base"] == nil {
		if err := traceOf("base", b.Base, w.Ref); err != nil {
			return err
		}
	}
	for _, key := range []string{"base-train", "base"} {
		tr := traces[key]
		rec.timed("profile.analyze", root, func(int) { profile.Analyze(tr) })
		cc.ProfileEvents += int64(tr.Events())
	}
	rec.timed("sim.seq_baseline", root, func(int) {
		sim.SimulateSequentialRegions(sim.Input{Trace: traces["plain"], Workers: 1})
	})
	var m0, m1 runtime.MemStats
	for _, l := range labels {
		tr := traces[labelBinary[l]]
		in := sim.Input{Trace: tr, Policy: labelPolicy(l)}
		runtime.ReadMemStats(&m0)
		rec.timed("sim.simulate", root, func(int) { sim.Simulate(in) })
		runtime.ReadMemStats(&m1)
		cc.SimCalls++
		cc.SimEvents += int64(tr.Events())
		cc.SimAllocs += m1.Mallocs - m0.Mallocs
		cc.SimBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return nil
}

// retainedMB is the mean live heap, in MB, that one prepared Run holds
// once the traces of its three simulated binaries exist — what tlsd
// keeps per program it has served.
func retainedMB(ws []*tlssync.Workload) (float64, error) {
	var total float64
	var m0, m1 runtime.MemStats
	for _, w := range ws {
		settle(&m0)
		r, err := tlssync.NewRunWithWorkers(w, 1)
		if err != nil {
			return 0, err
		}
		for _, l := range []string{"U", "T", "C"} { // base, train and ref traces
			if _, err := r.Simulate(l); err != nil {
				return 0, err
			}
		}
		settle(&m1)
		total += float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20)
		runtime.KeepAlive(r)
	}
	return total / float64(len(ws)), nil
}

// settle collects garbage until pooled buffers are gone too (sync.Pool
// keeps a victim generation across one GC), then reads the heap.
func settle(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}
