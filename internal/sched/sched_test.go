package sched

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func newSched(t *testing.T, cpus int) (*sim.Engine, *Scheduler, *machine.Machine) {
	t.Helper()
	e := sim.NewEngine(13)
	cfg := machine.DefaultConfig()
	cfg.Nodes = cpus
	cfg.MemPerNodeMB = 1
	m := machine.New(e, cfg)
	return e, New(0, m.Procs), m
}

func TestComputeSingleCPUSerializes(t *testing.T) {
	e, s, _ := newSched(t, 1)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(tk *sim.Task) {
			s.Compute(tk, 30*sim.Millisecond)
			ends = append(ends, tk.Now())
		})
	}
	e.Run(0)
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	// Two 30 ms jobs on one CPU: total wall ≥ 60 ms (plus switches).
	last := ends[1]
	if ends[0] > last {
		last = ends[0]
	}
	if last < 60*sim.Millisecond {
		t.Fatalf("finished at %v — jobs overlapped on one CPU", last)
	}
}

func TestComputeTimeslicesInterleave(t *testing.T) {
	e, s, _ := newSched(t, 1)
	var firstDone, secondDone sim.Time
	e.Go("long", func(tk *sim.Task) {
		s.Compute(tk, 100*sim.Millisecond)
		firstDone = tk.Now()
	})
	e.Go("short", func(tk *sim.Task) {
		s.Compute(tk, 10*sim.Millisecond)
		secondDone = tk.Now()
	})
	e.Run(0)
	// The short job must not wait for the whole long job: with 10 ms
	// slices it finishes far before the long one.
	if secondDone >= firstDone {
		t.Fatalf("short=%v long=%v — no timeslicing", secondDone, firstDone)
	}
}

func TestComputeParallelOnTwoCPUs(t *testing.T) {
	e, s, _ := newSched(t, 2)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(tk *sim.Task) {
			s.Compute(tk, 30*sim.Millisecond)
			ends = append(ends, tk.Now())
		})
	}
	e.Run(0)
	for _, end := range ends {
		if end > 35*sim.Millisecond {
			t.Fatalf("end = %v — jobs serialized despite two CPUs", end)
		}
	}
}

func TestFreezeThaw(t *testing.T) {
	e, s, _ := newSched(t, 1)
	var resumedAt sim.Time
	e.Go("user", func(tk *sim.Task) {
		s.Compute(tk, 5*sim.Millisecond)
		s.Compute(tk, 5*sim.Millisecond) // blocked while frozen
		resumedAt = tk.Now()
	})
	e.At(2*sim.Millisecond, func() { s.Freeze() })
	e.At(50*sim.Millisecond, func() { s.Thaw() })
	e.Run(0)
	if !((resumedAt >= 50*sim.Millisecond) && resumedAt < 70*sim.Millisecond) {
		t.Fatalf("resumed at %v, want shortly after thaw at 50ms", resumedAt)
	}
	if s.frozen {
		t.Fatal("still frozen")
	}
}

func TestSystemNotFrozen(t *testing.T) {
	// Kernel-mode work proceeds during recovery's user freeze (§4.3).
	e, s, _ := newSched(t, 1)
	s.Freeze()
	var done sim.Time
	e.Go("kernel", func(tk *sim.Task) {
		s.System(tk, 5*sim.Millisecond)
		done = tk.Now()
	})
	e.Run(100 * sim.Millisecond)
	if done == 0 || done > 10*sim.Millisecond {
		t.Fatalf("kernel work done at %v despite freeze", done)
	}
}

func TestPickSkipsHaltedCPUs(t *testing.T) {
	e, s, m := newSched(t, 2)
	m.Procs[0].Halt()
	done := false
	e.Go("p", func(tk *sim.Task) {
		s.Compute(tk, 5*sim.Millisecond)
		done = true
	})
	e.Run(sim.Second)
	if !done {
		t.Fatal("compute stuck on halted CPU")
	}
}
