// Package sched is the per-cell processor scheduler: it time-slices the
// cell's processors among runnable processes, lets interrupt handlers steal
// time (via the machine layer), and freezes user compute during recovery.
package sched

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DefaultTimeslice matches a classic 10 ms UNIX quantum.
const DefaultTimeslice = 10 * sim.Millisecond

// ContextSwitch is charged at every involuntary slice boundary.
const ContextSwitch = 10 * sim.Microsecond

// Scheduler multiplexes one cell's CPUs.
type Scheduler struct {
	CellID    int
	Procs     []*machine.Processor
	Timeslice sim.Time

	cpus    *sim.Semaphore
	rr      int
	Metrics *stats.Registry

	// frozen suspends user-level compute (recovery suspends user
	// processes while kernel-level work continues, §4.3).
	frozen      bool
	thawWaiters []*sim.Task
}

// Freeze suspends user-level computation at the next slice boundary.
func (s *Scheduler) Freeze() { s.frozen = true }

// Thaw resumes user-level computation.
func (s *Scheduler) Thaw() {
	s.frozen = false
	ws := s.thawWaiters
	s.thawWaiters = nil
	for _, w := range ws {
		if !w.Done() {
			w.WakeSoon()
		}
	}
}

func (s *Scheduler) waitThaw(t *sim.Task) {
	for s.frozen {
		s.thawWaiters = append(s.thawWaiters, t)
		t.Block()
	}
}

// New returns a scheduler over the given processors.
func New(cellID int, procs []*machine.Processor) *Scheduler {
	return &Scheduler{
		CellID:    cellID,
		Procs:     procs,
		Timeslice: DefaultTimeslice,
		cpus:      sim.NewSemaphore(len(procs)),
		Metrics:   stats.NewRegistry(),
	}
}

// pick returns the next CPU round-robin, skipping halted ones.
func (s *Scheduler) pick() *machine.Processor {
	for i := 0; i < len(s.Procs); i++ {
		p := s.Procs[(s.rr+i)%len(s.Procs)]
		if !p.Halted() {
			s.rr = (s.rr + i + 1) % len(s.Procs)
			return p
		}
	}
	return s.Procs[0]
}

// Compute runs d nanoseconds of user-mode CPU work for task t, acquiring a
// processor and yielding at each timeslice so runnable peers interleave.
// Interrupts arriving on the chosen CPU extend the burst (time stealing).
func (s *Scheduler) Compute(t *sim.Task, d sim.Time) {
	first := true
	for d > 0 {
		s.waitThaw(t)
		s.cpus.Acquire(t)
		if !first {
			s.Metrics.Counter("sched.switches").Inc()
			s.pick() // charge nothing extra; switch cost below
		}
		slice := s.Timeslice
		if d < slice {
			slice = d
		}
		p := s.pick()
		if !first {
			p.Use(t, ContextSwitch)
		}
		p.Use(t, slice)
		d -= slice
		s.cpus.Release()
		first = false
	}
}

// System runs kernel-mode work for t on any CPU without a slice boundary
// (syscall paths are not preempted in this model).
func (s *Scheduler) System(t *sim.Task, d sim.Time) {
	s.pick().Use(t, d)
}

// SystemShared runs kernel-mode work that competes for a CPU with user
// compute (used by throughput probes where kernel time must occupy real
// processor capacity).
func (s *Scheduler) SystemShared(t *sim.Task, d sim.Time) {
	s.cpus.Acquire(t)
	s.pick().Use(t, d)
	s.cpus.Release()
}
