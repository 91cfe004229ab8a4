//go:build go1.23

// The build line above raises this file's language version to go1.23, which
// iter.Pull needs, while go.mod stays at go 1.22. The benchmark module
// (perfbench/go.mod) says go 1.22 and requires this module, and a module may
// not require one with a newer go line: raising go.mod to 1.23 fails its build
// with "updates to go.mod needed". Drop the line once both move to go 1.23.

package sim

import (
	"fmt"
	"iter"
)

// killedPanic is thrown inside a task's coroutine when the task is killed
// (e.g. its processor's node suffered a fail-stop fault). It unwinds the
// task's stack, running deferred cleanup, and is swallowed by the task
// wrapper.
type killedPanic struct{ name string }

// String names the sentinel for diagnostics.
func (k killedPanic) String() string { return "task killed: " + k.name }

// taskFailure wraps a genuine panic escaping task code so the engine can
// re-raise it on the caller's goroutine.
type taskFailure struct {
	name string
	val  any
}

// Task is a simulated thread of control: a runtime coroutine that runs only
// when the engine hands it the virtual CPU and that blocks by parking in
// virtual time. Kernel code, simulated user processes, interrupt service
// threads, and the Wax policy process are all Tasks.
//
// The coroutine comes from iter.Pull: dispatch calls next, which switches to
// the task's goroutine until park calls yield, which switches back. The
// runtime hands control over directly, without a trip through the scheduler.
type Task struct {
	eng      *Engine
	name     string
	next     func() (struct{}, bool)
	yield    func(struct{}) bool
	done     bool
	parked   bool
	killed   bool
	timedOut bool

	// Data lets subsystems attach context (e.g. the owning cell) without
	// threading extra parameters everywhere.
	Data any
}

// Go starts fn as a new task named name. The task begins running at the
// current virtual time (after already-scheduled events for this instant).
func (e *Engine) Go(name string, fn func(t *Task)) *Task {
	t := &Task{eng: e, name: name}
	e.nTasks++
	// The coroutine starts at the first next and ends by returning from
	// this body, which hands control back to dispatch one last time. No
	// panic escapes it, so next never re-raises one.
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					t.eng.failure = taskFailure{name: t.name, val: r}
				}
			}
			t.done = true
			t.eng.nTasks--
		}()
		if t.killed {
			panic(killedPanic{t.name})
		}
		fn(t)
	})
	e.atOwned(e.now, func() {
		if !t.done {
			e.dispatch(t)
		}
	})
	return t
}

// dispatch hands the virtual CPU to t until it parks or finishes. It must be
// called from engine context (inside an event callback).
func (e *Engine) dispatch(t *Task) {
	prev := e.cur
	e.cur = t
	if e.Trace != nil {
		e.Trace(e.now, "run "+t.name)
	}
	t.next()
	e.cur = prev
	if e.failure != nil {
		f := e.failure.(taskFailure)
		panic(fmt.Sprintf("sim: task %q panicked: %v", f.name, f.val))
	}
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.eng.now }

// Done reports whether the task has finished.
func (t *Task) Done() bool { return t.done }

// park suspends the task until another party calls wake. Must be called from
// the task's own coroutine while it holds the virtual CPU.
func (t *Task) park() {
	if t.killed {
		panic(killedPanic{t.name})
	}
	t.parked = true
	t.yield(struct{}{}) // stop is never called, so yield always resumes
	if t.killed {
		panic(killedPanic{t.name})
	}
}

// wake resumes a parked task. Must be called from engine context (an event
// callback); waking from task context goes through WakeSoon.
func (t *Task) wake(timedOut bool) {
	if t.done || !t.parked {
		return
	}
	t.parked = false
	t.timedOut = timedOut
	t.eng.dispatch(t)
}

// WakeSoon schedules the parked task to resume at the current virtual time.
// Safe to call from any simulation context. Waking a task that is not parked
// is a no-op.
func (t *Task) WakeSoon() {
	t.eng.schedule(t.eng.now, nil, t, false).owned = true
}

// Sleep suspends the task for d nanoseconds of virtual time.
func (t *Task) Sleep(d Time) {
	if d < 0 {
		// Yield: reschedule self after simultaneous events.
		d = 0
	}
	t.eng.schedule(t.eng.now+d, nil, t, false).owned = true
	t.park()
}

// SleepEvent suspends the task for d nanoseconds and stores its wake event in
// *slot before parking, so another party may Reschedule it (interrupt
// time-stealing) while the task sleeps. On return it clears *slot if *slot
// still holds that event, and recycles the event: the pointer is valid only
// until SleepEvent returns. A task killed mid-sleep never returns, so then
// the event is never recycled and *slot stays safe to use.
func (t *Task) SleepEvent(d Time, slot **Event) {
	ev := t.eng.schedule(t.eng.now+d, nil, t, false)
	*slot = ev
	t.park()
	if *slot == ev {
		*slot = nil
	}
	t.eng.release(ev)
}

// Block parks the task indefinitely until something wakes it (via WakeSoon
// or a wait-queue). Use BlockTimeout when a bound is needed.
func (t *Task) Block() {
	t.park()
}

// BlockTimeout parks the task for at most d; it reports whether the wait
// timed out rather than being woken.
func (t *Task) BlockTimeout(d Time) (timedOut bool) {
	tev := t.eng.schedule(t.eng.now+d, nil, t, true)
	t.park()
	tev.Cancel()
	tev.engine.release(tev) // this call held the only reference
	return t.timedOut
}

// Kill terminates the task: if it is parked it unwinds immediately (running
// its defers); if it is runnable it unwinds at its next suspension point.
// Safe to call from any simulation context, including the task itself.
func (t *Task) Kill() {
	if t.done || t.killed {
		return
	}
	t.killed = true
	if t == t.eng.cur {
		panic(killedPanic{t.name})
	}
	t.eng.atOwned(t.eng.now, func() {
		if t.done {
			return
		}
		if t.parked {
			t.parked = false
			t.eng.dispatch(t)
		}
	})
}
