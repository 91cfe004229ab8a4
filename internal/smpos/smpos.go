// Package smpos models the shared-everything SMP operating system the paper
// contrasts Hive against (§1): a single monolithic kernel in which all
// processors directly share all kernel resources. Functionally it is the
// IRIX baseline (a one-cell boot of the same kernel code); this package
// adds the *scalability* aspect the paper argues qualitatively — kernel
// data structures protected by contended locks, so parallelism degrades as
// processors are added, whereas the multicellular design scales by adding
// cells.
//
// The lock-contention model is intentionally simple: each kernel operation
// holds one of a small set of kernel locks for a configurable fraction of
// its service time, in the style of early-90s SMP kernels whose
// "improving parallelism is an iterative trial-and-error process of
// identifying and fixing bottlenecks" (§1).
package smpos

import (
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config tunes the shared-everything contention model.
type Config struct {
	// KernelLocks is how far lock splitting has progressed: 1 models a
	// giant-locked kernel, larger values a partially parallelized one.
	KernelLocks int
	// LockedFraction is the fraction (0..1) of each kernel operation's
	// service time spent holding a kernel lock.
	LockedFraction float64
}

// DefaultConfig models a giant-locked kernel — the §1 starting point of
// the "iterative trial-and-error" parallelization process.
func DefaultConfig() Config {
	return Config{KernelLocks: 1, LockedFraction: 0.5}
}

// System is an SMP OS instance: one kernel over the whole machine.
type System struct {
	Hive *core.Hive // single cell, protection hardware off
	Cfg  Config

	locks   []*sim.Mutex
	rr      int
	Metrics *stats.Registry
}

// Boot brings up the SMP OS on a machine with the given node count.
func Boot(nodes int, cfg Config) *System {
	hcfg := core.DefaultConfig()
	hcfg.Cells = 1
	hcfg.Machine.Nodes = nodes
	hcfg.Machine.FirewallEnabled = false
	hcfg.Agreement = membership.Oracle
	sys := &System{Hive: core.Boot(hcfg), Cfg: cfg, Metrics: stats.NewRegistry()}
	if cfg.KernelLocks < 1 {
		cfg.KernelLocks = 1
	}
	for i := 0; i < cfg.KernelLocks; i++ {
		sys.locks = append(sys.locks, &sim.Mutex{})
	}
	return sys
}

// Cell returns the single kernel instance.
func (s *System) Cell() *core.Cell { return s.Hive.Cells[0] }

// KernelOp performs a kernel operation of the given service time, holding
// one of the kernel locks for LockedFraction of it — the serialization a
// shared-everything kernel imposes.
func (s *System) KernelOp(t *sim.Task, service sim.Time) {
	locked := sim.Time(float64(service) * s.Cfg.LockedFraction)
	open := service - locked
	sched := s.Cell().Sched
	sched.SystemShared(t, open)
	if locked <= 0 {
		return
	}
	l := s.locks[s.rr%len(s.locks)]
	s.rr++
	if l.Locked() {
		s.Metrics.Counter("smpos.lock_contended").Inc()
	}
	l.Lock(t)
	sched.SystemShared(t, locked)
	l.Unlock(t)
	s.Metrics.Counter("smpos.kernel_ops").Inc()
}

// ThroughputProbe runs `procs` kernel-intensive processes for the given
// duration and returns completed kernel operations — the §1 scalability
// comparison's measurement. Each process alternates a small compute burst
// with a kernel operation.
func (s *System) ThroughputProbe(procs int, opService, computeBurst sim.Time, duration sim.Time) int64 {
	var ops int64
	stopAt := s.Hive.Eng.Now() + duration
	for i := 0; i < procs; i++ {
		s.Cell().Procs.Spawn("probe", 500, func(p *proc.Process, t *sim.Task) {
			for t.Now() < stopAt {
				p.Compute(t, computeBurst)
				s.KernelOp(t, opService)
				ops++
			}
		})
	}
	s.Hive.Run(stopAt)
	return ops
}

// HiveThroughputProbe is the multicellular counterpart: the same offered
// load on a Hive, where each cell's kernel has its own locks, so cross-cell
// contention is structural zero (few kernel resources are shared between
// cells, §1). Kernel ops here serialize only within a cell.
func HiveThroughputProbe(h *core.Hive, procsPerCell int, opService, computeBurst sim.Time, duration sim.Time, lockedFraction float64) int64 {
	var ops int64
	stopAt := h.Eng.Now() + duration
	locks := make([]*sim.Mutex, len(h.Cells))
	for i := range locks {
		locks[i] = &sim.Mutex{}
	}
	for ci, c := range h.Cells {
		cell := c
		lock := locks[ci]
		for i := 0; i < procsPerCell; i++ {
			cell.Procs.Spawn("probe", 500, func(p *proc.Process, t *sim.Task) {
				for t.Now() < stopAt {
					p.Compute(t, computeBurst)
					locked := sim.Time(float64(opService) * lockedFraction)
					cell.Sched.SystemShared(t, opService-locked)
					if locked > 0 {
						lock.Lock(t)
						cell.Sched.SystemShared(t, locked)
						lock.Unlock(t)
					}
					ops++
				}
			})
		}
	}
	h.Run(stopAt)
	return ops
}
