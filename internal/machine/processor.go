package machine

import "repro/internal/sim"

// Processor is one CPU. Simulated execution charges time through Use, which
// is "stealable": interrupt handlers arriving while a task computes push the
// task's completion later, modelling the CPU time interrupts consume.
type Processor struct {
	ID   int
	Node *Node
	eng  *sim.Engine

	halted bool

	// curCompute is the wake event of the compute burst currently
	// executing on this CPU, if any; interrupts reschedule it.
	curCompute *sim.Event

	// intrBusyUntil serializes interrupt context: back-to-back handlers
	// queue behind one another.
	intrBusyUntil sim.Time

	// IntrNesting counts handlers currently queued/active, for stats.
	IntrNesting int
}

// Halted reports whether the processor has been halted by a fault.
func (p *Processor) Halted() bool { return p.halted }

// Halt stops the processor (fail-stop fault).
func (p *Processor) Halt() { p.halted = true }

// Unhalt restarts a halted processor (reintegration).
func (p *Processor) Unhalt() { p.halted = false }

// Use executes d nanoseconds of work for task t on this CPU. Interrupts
// arriving during the burst extend it. If the processor halts mid-burst the
// task never resumes on its own (the fault injector kills it), matching
// fail-stop semantics.
func (p *Processor) Use(t *sim.Task, d sim.Time) {
	if p.halted {
		// A halted CPU executes nothing; freeze the caller. It will be
		// killed by the failure machinery.
		t.Block()
		return
	}
	if d <= 0 {
		return
	}
	t.SleepEvent(d, &p.curCompute)
}

// StealTime pushes the currently executing compute burst (if any) later by
// d, charging interrupt execution time to the interrupted task.
func (p *Processor) StealTime(d sim.Time) {
	if p.curCompute != nil && p.curCompute.Pending() {
		p.curCompute.Reschedule(p.curCompute.When() + d)
	}
}

// Interrupt runs fn in interrupt context on this CPU after cost nanoseconds
// of handler execution. Handlers serialize per CPU and steal time from any
// task computing on it. fn runs in engine context; it must not block — work
// that can block is handed to a queued-service task by the RPC layer.
// Interrupt reports false if the processor is halted (the interrupt is
// dropped, as on real hardware).
func (p *Processor) Interrupt(cost sim.Time, fn func()) bool {
	if p.halted {
		return false
	}
	now := p.eng.Now()
	start := now
	if p.intrBusyUntil > start {
		start = p.intrBusyUntil
	}
	p.intrBusyUntil = start + cost
	p.StealTime(cost)
	p.IntrNesting++
	p.eng.At(start+cost, func() {
		p.IntrNesting--
		if p.halted {
			return
		}
		fn()
	})
	return true
}
