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

	// pending[intrHead:] holds the interrupts taken and not yet
	// completed, oldest first, and complete is the bound method their
	// completion events call.
	pending  []intr
	intrHead int
	complete func(any)
}

// newProcessor returns processor id of node, bound to engine e.
func newProcessor(id int, node *Node, e *sim.Engine) *Processor {
	p := &Processor{ID: id, Node: node, eng: e}
	p.complete = p.completeIntr
	return p
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

// Interrupt runs fn(p, arg) in interrupt context on this CPU after cost
// nanoseconds of handler execution. Handlers serialize per CPU and steal
// time from any task computing on it. fn runs in engine context; it must
// not block — work that can block is handed to a queued-service task by the
// RPC layer. A hot path binds fn once and passes its per-call state as arg,
// so taking an interrupt allocates nothing. Interrupt reports false if the
// processor is halted (the interrupt is dropped, as on real hardware); a
// handler whose processor halts before it completes is dropped too. cost
// must not be negative.
func (p *Processor) Interrupt(cost sim.Time, fn func(*Processor, any), arg any) bool {
	if p.halted {
		return false
	}
	if cost < 0 {
		panic("machine: negative interrupt cost")
	}
	now := p.eng.Now()
	start := now
	if p.intrBusyUntil > start {
		start = p.intrBusyUntil
	}
	p.intrBusyUntil = start + cost
	p.StealTime(cost)
	// Every completion on this CPU is scheduled no earlier than the one
	// before it (start never moves back, and cost is not negative), and
	// the engine breaks ties by scheduling order, so completions fire in
	// the order their interrupts were taken: the oldest pending handler
	// is always the one whose completion fires.
	p.pending = append(p.pending, intr{fn, arg})
	p.eng.AtArg(start+cost, p.complete, nil)
	return true
}

// completeIntr is every interrupt's completion event: it runs the oldest
// pending handler unless the processor has halted since.
func (p *Processor) completeIntr(any) {
	h := p.pending[p.intrHead]
	p.pending[p.intrHead] = intr{} // drop the references for the collector
	if p.intrHead++; p.intrHead == len(p.pending) {
		// Drained: later interrupts reuse the array from its start, so a
		// warm processor takes interrupts without allocating.
		p.pending, p.intrHead = p.pending[:0], 0
	}
	if p.halted {
		return
	}
	h.fn(p, h.arg)
}

// runFunc adapts a plain func() to an interrupt handler: Interrupt(cost,
// runFunc, fn) runs fn. A func value is one pointer, so it rides in the
// argument without allocating.
func runFunc(_ *Processor, fn any) { fn.(func())() }

// intr is one taken interrupt: its handler and the handler's argument.
type intr struct {
	fn  func(*Processor, any)
	arg any
}
