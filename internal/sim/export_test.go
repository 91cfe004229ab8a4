package sim

// Step processes a single event, returning false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.cancelled {
			if ev.owned {
				e.recycle(ev)
			}
			continue
		}
		e.fire(ev)
		return true
	}
	return false
}

// handleAt schedules fn at absolute time t like At, but returns the event
// as a handle the test owns: the engine never recycles it, so Cancel,
// Reschedule, Pending and When stay safe on it at any later point.
func (e *Engine) handleAt(t Time, fn func()) *Event {
	return e.schedule(t, callFunc, fn, nil, false)
}

// Pending returns the number of scheduled (non-cancelled) events. It is
// O(1): the engine keeps the count current across push, pop, and cancel.
func (e *Engine) Pending() int { return e.nLive }

// Killed reports whether the task has been killed.
func (t *Task) Killed() bool { return t.killed }
