// Package sim is the trace-driven TLS chip-multiprocessor timing
// simulator. It replays the per-epoch event streams produced by the
// functional interpreter on a simulated 4-CPU machine under a chosen
// value-communication policy, modeling:
//
//   - 4-wide in-order issue with a register scoreboard per epoch run
//     (non-blocking loads, latency per operation class);
//   - a two-level cache hierarchy for access latencies;
//   - speculative epoch state with line-granularity dependence tracking:
//     eager violations when a store hits a line an active later epoch has
//     exposed-loaded, and commit-time violations for stale reads
//     (load-after-uncommitted-store), reproducing invalidation-based TLS
//     coherence behaviour including false sharing;
//   - squash/restart with full cost accounting and cascading restarts of
//     consumers that used a squashed producer's forwarded values;
//   - scalar and memory wait/signal mailboxes with forwarding latency,
//     the producer-side signal address buffer, the consumer-side
//     use-forwarded-value protocol, and epoch-end implicit NULL signals;
//   - hardware-inserted synchronization (violation-history table with
//     periodic reset), last-value prediction, and idealized oracle modes;
//   - the paper's graduation-slot breakdown (busy / fail / sync / other).
package sim

import (
	"fmt"
	"strings"
)

// MachineConfig mirrors the paper's Table 1 simulation parameters, scaled
// to the trace-driven model.
type MachineConfig struct {
	CPUs       int `json:"CPUs"`       // processing cores
	IssueWidth int `json:"IssueWidth"` // instructions graduated per cycle per CPU

	// Latencies (cycles).
	IntMulLat   int `json:"IntMulLat"`
	IntDivLat   int `json:"IntDivLat"`
	L1Lat       int `json:"L1Lat"`       // L1 hit
	L2Lat       int `json:"L2Lat"`       // L1 miss, L2 hit
	MemLat      int `json:"MemLat"`      // L2 miss
	CommLat     int `json:"CommLat"`     // signal->wait forwarding (crossbar)
	RestartCost int `json:"RestartCost"` // squash-to-restart penalty
	CommitCost  int `json:"CommitCost"`  // epoch commit overhead
	SpawnCost   int `json:"SpawnCost"`   // starting the next epoch on a CPU
	CallCost    int `json:"CallCost"`    // call/return overhead
	AllocCost   int `json:"AllocCost"`   // arena allocation (new)

	// Caches.
	LineSize int64 `json:"LineSize"`
	L1Sets   int   `json:"L1Sets"` // per-CPU L1: L1Sets * L1Ways * LineSize bytes
	L1Ways   int   `json:"L1Ways"`
	L2Sets   int   `json:"L2Sets"` // shared L2
	L2Ways   int   `json:"L2Ways"`

	// Hardware synchronization (when the policy enables it).
	HWTableSize   int `json:"HWTableSize"`   // entries in the violation-history table
	HWResetEpochs int `json:"HWResetEpochs"` // periodic reset interval, in committed epochs

	// SignalAddrBufSize bounds the producer-side signal address buffer
	// (the paper reports 10 entries always suffice).
	SignalAddrBufSize int `json:"SignalAddrBufSize"`
}

// DefaultMachine returns the paper's 4-processor configuration.
func DefaultMachine() MachineConfig {
	return MachineConfig{
		CPUs:       4,
		IssueWidth: 4,

		IntMulLat:   3,
		IntDivLat:   12,
		L1Lat:       1,
		L2Lat:       10,
		MemLat:      75,
		CommLat:     10,
		RestartCost: 10,
		CommitCost:  5,
		SpawnCost:   5,
		CallCost:    2,
		AllocCost:   8,

		LineSize: 32,
		L1Sets:   512, // 512 sets x 2 ways x 32 B = 32 KB
		L1Ways:   2,
		L2Sets:   8192, // 8192 sets x 4 ways x 32 B = 1 MB
		L2Ways:   4,

		HWTableSize:   32,
		HWResetEpochs: 16,

		SignalAddrBufSize: 10,
	}
}

// Table1 renders the configuration as the paper's Table 1.
func (m MachineConfig) Table1() string {
	var sb strings.Builder
	row := func(k, v string) { fmt.Fprintf(&sb, "  %-38s %s\n", k, v) }
	sb.WriteString("Table 1: Simulation parameters\n")
	sb.WriteString("Pipeline Parameters\n")
	row("Processors", fmt.Sprintf("%d", m.CPUs))
	row("Issue Width", fmt.Sprintf("%d", m.IssueWidth))
	row("Integer Multiply", fmt.Sprintf("%d cycles", m.IntMulLat))
	row("Integer Divide", fmt.Sprintf("%d cycles", m.IntDivLat))
	row("All Other Integer", "1 cycle")
	row("Call/Return Overhead", fmt.Sprintf("%d cycles", m.CallCost))
	sb.WriteString("Memory Parameters\n")
	row("Cache Line Size", fmt.Sprintf("%d B", m.LineSize))
	row("Data Cache (per CPU)", fmt.Sprintf("%d KB, %d-way, %d-cycle hit",
		int64(m.L1Sets)*int64(m.L1Ways)*m.LineSize/1024, m.L1Ways, m.L1Lat))
	row("Unified Secondary Cache (shared)", fmt.Sprintf("%d KB, %d-way, %d-cycle hit",
		int64(m.L2Sets)*int64(m.L2Ways)*m.LineSize/1024, m.L2Ways, m.L2Lat))
	row("Miss Latency to Main Memory", fmt.Sprintf("%d cycles", m.MemLat))
	row("Crossbar Communication Latency", fmt.Sprintf("%d cycles", m.CommLat))
	sb.WriteString("Speculation Parameters\n")
	row("Squash/Restart Penalty", fmt.Sprintf("%d cycles", m.RestartCost))
	row("Epoch Commit Overhead", fmt.Sprintf("%d cycles", m.CommitCost))
	row("Epoch Spawn Overhead", fmt.Sprintf("%d cycles", m.SpawnCost))
	row("HW Violation Table", fmt.Sprintf("%d entries, reset every %d epochs",
		m.HWTableSize, m.HWResetEpochs))
	row("Signal Address Buffer", fmt.Sprintf("%d entries", m.SignalAddrBufSize))
	return sb.String()
}
