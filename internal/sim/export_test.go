package sim

import "container/heap"

// Step processes a single event, returning false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
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

// Pending returns the number of scheduled (non-cancelled) events. It is
// O(1): the engine keeps the count current across push, pop, and cancel.
func (e *Engine) Pending() int { return e.nLive }

// Killed reports whether the task has been killed.
func (t *Task) Killed() bool { return t.killed }
