// Package hive is a Go reproduction of "Hive: Fault Containment for
// Shared-Memory Multiprocessors" (Chapin, Rosenblum, Devine, Lahiri,
// Teodosiu, Gupta — SOSP 1995).
//
// Hive is an operating system structured as an internal distributed system
// of independent kernels called cells. Because a real supervisor kernel
// cannot live inside a Go runtime, this package drives a deterministic
// discrete-event simulation of the Stanford FLASH machine (firewall
// write-permission hardware, SIPS messages, the memory fault model) and
// runs the full multicellular kernel on top: per-cell virtual memory with
// logical- and physical-level memory sharing, a distributed file system
// with failure generation numbers, distributed copy-on-write trees read
// through the careful reference protocol, intercell RPC, failure detection
// with distributed agreement, double-barrier recovery with preemptive
// discard, and the Wax user-level policy process.
//
// Quick start:
//
//	h := hive.Boot(hive.DefaultConfig())       // 4 cells on 4 nodes
//	res := hive.RunPmake(h, hive.DefaultPmake(), 30*hive.Second)
//	fmt.Println(res.Elapsed)                    // virtual seconds
//	h.Cells[1].FailHardware()                   // inject a fail-stop fault
//	h.Run(h.Now() + hive.Second)                // survivors detect & recover
//
// Every run is deterministic for a given Config.Seed. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the paper-vs-measured
// results of every table the evaluation reproduces.
package hive

import (
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fs"
	"repro/internal/membership"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Re-exported core types. The internal packages remain the implementation;
// these aliases are the supported public surface.
type (
	// Config describes a Hive boot: machine shape, cell count,
	// agreement mode, file system mounts, seed.
	Config = core.Config
	// Hive is a booted system: the machine, the coordinator, and the
	// cells.
	Hive = core.Hive
	// Cell is one independent kernel.
	Cell = core.Cell
	// Mount places a file-system subtree on a data-home cell.
	Mount = fs.Mount
	// Time is virtual time in nanoseconds.
	Time = sim.Time

	// PmakeConfig, OceanConfig, and RaytraceConfig parameterize the
	// paper's three evaluation workloads (Table 7.1).
	PmakeConfig    = workload.PmakeConfig
	OceanConfig    = workload.OceanConfig
	RaytraceConfig = workload.RaytraceConfig
	// WorkloadResult is a workload execution's outcome.
	WorkloadResult = workload.Result

	// Scenario names a §7.4 fault-injection scenario.
	Scenario = faultinject.Scenario
	// TrialResult is one fault-injection trial's outcome.
	TrialResult = faultinject.TrialResult
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Agreement modes.
const (
	// Oracle confirms failures from ground truth, as in the paper's
	// experiments.
	Oracle = membership.Oracle
	// Vote runs the real probe-and-majority agreement protocol.
	Vote = membership.Vote
)

// Fault-injection scenarios (Table 7.4).
const (
	NodeFailProcCreate = faultinject.NodeFailProcCreate
	NodeFailCOWSearch  = faultinject.NodeFailCOWSearch
	NodeFailRandom     = faultinject.NodeFailRandom
	CorruptAddrMap     = faultinject.CorruptAddrMap
	CorruptCOWTree     = faultinject.CorruptCOWTree
)

// DefaultConfig returns the paper's evaluation machine: four 200 MHz
// processors, 32 MB per node, four cells, /tmp homed on the last cell.
func DefaultConfig() Config { return core.DefaultConfig() }

// Boot builds and starts a Hive.
func Boot(cfg Config) *Hive { return core.Boot(cfg) }

// MaxCells is the largest supported cell count (64): the FLASH firewall
// tracks write permission as a 64-bit processor vector per page, so the
// containment hardware can distinguish at most 64 single-node cells.
const MaxCells = core.MaxCells

// BootCells boots a machine partitioned into any supported cell count
// (1 up to MaxCells) with the standard mounts. Counts dividing the paper's
// 4-node evaluation machine (1, 2, 4) boot exactly that machine; larger
// counts scale to one node per cell. Panics on unsupported counts — use
// ValidateCells to check first.
func BootCells(cells int) *Hive { return workload.BootHive(cells) }

// ValidateCells reports whether BootCells would accept the count: nil for
// 1..MaxCells, an error describing the violated constraint otherwise.
func ValidateCells(cells int) error {
	return core.ValidateCells(cells, workload.MachineNodes(cells))
}

// BootIRIX boots the IRIX 5.2 baseline: the same kernel code as a single
// cell with the Hive protection hardware off.
func BootIRIX() *Hive { return workload.BootIRIX() }

// DefaultPmake returns the calibrated parallel-make workload (11 files of
// GnuChess, 4 at a time; ≈5.77 s on IRIX).
func DefaultPmake() PmakeConfig { return workload.DefaultPmake() }

// DefaultOcean returns the calibrated SPLASH-2 ocean workload (130×130
// grid; ≈6.07 s on IRIX).
func DefaultOcean() OceanConfig { return workload.DefaultOcean() }

// DefaultRaytrace returns the calibrated SPLASH-2 raytrace workload (a
// teapot; ≈4.35 s on IRIX).
func DefaultRaytrace() RaytraceConfig { return workload.DefaultRaytrace() }

// RunPmake executes the parallel make, blocking (in virtual time) until it
// completes or maxTime passes.
func RunPmake(h *Hive, cfg PmakeConfig, maxTime Time) *WorkloadResult {
	return workload.RunPmake(h, cfg, maxTime)
}

// RunOcean executes the ocean simulation.
func RunOcean(h *Hive, cfg OceanConfig, maxTime Time) *WorkloadResult {
	return workload.RunOcean(h, cfg, maxTime)
}

// RunRaytrace executes the raytrace render.
func RunRaytrace(h *Hive, cfg RaytraceConfig, maxTime Time) *WorkloadResult {
	return workload.RunRaytrace(h, cfg, maxTime)
}

// VerifyOutputs re-reads a workload's output files and reports data
// integrity violations (corrupt or silently wrong content). Missing files
// and EIO are availability losses, not violations.
func VerifyOutputs(h *Hive, res *WorkloadResult) (bad int, report []string) {
	return workload.VerifyOutputs(h, res)
}

// RunTrial executes one §7.4 fault-injection trial from a fresh boot.
func RunTrial(s Scenario, trial int) *TrialResult {
	return faultinject.RunTrial(s, trial)
}
