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
// Engine.Stop calls the pull's stop, which ends the coroutine.
type Task struct {
	eng      *Engine
	name     string
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	index    int // position in eng.tasks while live
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
// Go on a stopped engine panics.
func (e *Engine) Go(name string, fn func(t *Task)) *Task {
	if e.stopped {
		panic("sim: Go on a stopped engine")
	}
	t := &Task{eng: e, name: name, index: len(e.tasks)}
	e.tasks = append(e.tasks, t)
	// The coroutine starts at the first next and ends by returning from
	// this body, which hands control back to dispatch (or Stop) one last
	// time. No panic escapes it, so neither next nor stop re-raises one.
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					t.eng.failure = taskFailure{name: t.name, val: r}
				}
			}
			t.exit()
		}()
		if t.killed {
			panic(killedPanic{t.name})
		}
		fn(t)
	})
	e.At(e.now, func() {
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
	e.raise()
}

// raise re-raises, on the caller's goroutine, a genuine panic that escaped
// a task.
func (e *Engine) raise() {
	if e.failure != nil {
		f := e.failure.(taskFailure)
		panic(fmt.Sprintf("sim: task %q panicked: %v", f.name, f.val))
	}
}

// exit marks t finished and swap-deletes it from the live-task list.
func (t *Task) exit() {
	t.done = true
	tasks := t.eng.tasks
	last := tasks[len(tasks)-1]
	tasks[t.index], last.index = last, t.index
	tasks[len(tasks)-1] = nil
	t.eng.tasks = tasks[:len(tasks)-1]
}

// Stop ends every live task, so that nothing the engine started outlives
// it: a parked coroutine is a blocked goroutine, and a blocked goroutine
// keeps everything it reaches alive. Each task is killed: a parked task
// unwinds from its park, running its defers as under Kill, and a task that
// was scheduled but never dispatched ends without running its body. A
// genuine panic escaping a task's defers is re-raised, as dispatch does.
// Defers may record trace events and move counters, so call Stop after the
// last read of the simulation's state, and only outside Run. A second Stop
// is a no-op; Run and Go on a stopped engine panic.
func (e *Engine) Stop() {
	for len(e.tasks) > 0 {
		t := e.tasks[len(e.tasks)-1]
		t.killed = true
		t.stop()
		if !t.done { // never dispatched: stop ended the coroutine before its body
			t.exit()
		}
		e.raise()
	}
	e.stopped = true
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
	// yield returns false once Engine.Stop has called the pull's stop: the
	// engine is ending the task, which unwinds as if killed.
	if !t.yield(struct{}{}) || t.killed {
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
	t.eng.schedule(t.eng.now, nil, nil, t, false).owned = true
}

// Sleep suspends the task for d nanoseconds of virtual time. When the wake
// would be the next event the engine fires, the task runs on instead of
// parking (see runOn).
func (t *Task) Sleep(d Time) {
	if d < 0 {
		// Yield: reschedule self after simultaneous events.
		d = 0
	}
	w := t.eng.now + d
	if t.eng.runOn(t, w) {
		return
	}
	t.eng.schedule(w, nil, nil, t, false).owned = true
	t.park()
}

// SleepEvent suspends the task for d nanoseconds and stores its wake event in
// *slot before parking, so another party may Reschedule it (interrupt
// time-stealing) while the task sleeps. On return it clears *slot if *slot
// still holds that event, and recycles the event: the pointer is valid only
// until SleepEvent returns. A task killed mid-sleep never returns, so then
// the event is never recycled and *slot stays safe to use. A sleep that runs
// on, which nothing can reschedule, leaves *slot nil, as a parked one that
// nothing overwrote does.
func (t *Task) SleepEvent(d Time, slot **Event) {
	w := t.eng.now + d
	if t.eng.runOn(t, w) {
		*slot = nil
		return
	}
	ev := t.eng.schedule(w, nil, nil, t, false)
	*slot = ev
	t.park()
	if *slot == ev {
		*slot = nil
	}
	t.eng.release(ev)
}

// runOn ends t's sleep until w without parking when the wake would be the
// next event fired: inside Run, not past its deadline, for a task not
// killed, and strictly before the queue's head (an event already queued at
// w was scheduled first and fires first). A parked task's wake would then
// be popped next, with nothing run in between but fire recycling the event
// that woke it, so the task would resume at w in the same state. runOn does
// what firing that wake does (the clock, the dispatch count, timedOut and
// the trace line) and skips the push, the pop and both coroutine switches.
// A lazily cancelled event at the head refuses a run-on it need not, and a
// wake before now (SleepEvent's negative d, which schedule clamps) parks.
// Step and Stop run outside Run, so their tasks always park.
func (e *Engine) runOn(t *Task, w Time) bool {
	if !e.running || t.killed || w < e.now ||
		(e.deadline > 0 && w > e.deadline) ||
		(len(e.events) > 0 && e.events[0].at <= w) {
		return false
	}
	e.now = w
	e.dispatched++
	t.timedOut = false
	if e.Trace != nil {
		e.Trace(w, "run "+t.name)
	}
	return true
}

// Block parks the task indefinitely until something wakes it (via WakeSoon
// or a wait-queue). Use BlockTimeout when a bound is needed.
func (t *Task) Block() {
	t.park()
}

// BlockTimeout parks the task for at most d; it reports whether the wait
// timed out rather than being woken.
func (t *Task) BlockTimeout(d Time) (timedOut bool) {
	tev := t.eng.schedule(t.eng.now+d, nil, nil, t, true)
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
	t.eng.At(t.eng.now, func() {
		if t.done {
			return
		}
		if t.parked {
			t.parked = false
			t.eng.dispatch(t)
		}
	})
}
