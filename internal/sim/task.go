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
// virtual time. Kernel code, simulated user processes, RPC server threads,
// and the Wax policy process are all Tasks.
//
// Starting a task costs one host object, the Task itself: its body runs on
// a coroutine that a finished task handed back to the engine, or on a new
// one when none is idle.
type Task struct {
	eng      *Engine
	name     string
	fn       func(t *Task)
	c        *coro // the coroutine running fn while the task is live
	index    int   // position in eng.tasks while live
	done     bool
	parked   bool
	killed   bool
	timedOut bool

	// Data lets subsystems attach context (e.g. the owning cell) without
	// threading extra parameters everywhere.
	Data any
}

// coro is a coroutine that runs task bodies one after another. It comes
// from iter.Pull: dispatch calls next, which switches to the coroutine's
// goroutine until park calls yield, which switches back. The runtime hands
// control over directly, without a trip through the scheduler. Between
// tasks the coroutine waits in yield on the engine's idle list; stop ends
// it.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	t     *Task // the task it runs or will run next, nil while idle
}

// newCoro makes a coroutine whose first next runs c.t's body. Once that
// body is done the coroutine waits in yield until Go hands it to a new
// task, whose first dispatch resumes it to run that task's body. A yield
// that returns false means Stop is ending the coroutine, idle or handed to
// a task that never ran. No panic escapes a body (run recovers them), so
// neither next nor stop re-raises one.
func newCoro() *coro {
	c := new(coro)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			c.t.run()
			c.t = nil
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// run runs t's body on its coroutine and then exits t. A kill unwinds the
// body and is swallowed; a genuine panic is kept for dispatch or Stop to
// re-raise. A task killed before its first dispatch exits without running
// its body.
func (t *Task) run() {
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
	t.fn(t)
}

// Go starts fn as a new task named name. The task begins running at the
// current virtual time (after already-scheduled events for this instant).
// Go on a stopped engine panics.
//
// The task takes its coroutine here, not at its first dispatch: the most
// recently idled one, whose stack is still warm, or a new one. Taking it at
// the first dispatch would make a task started before a measured interval
// create its coroutine inside that interval.
func (e *Engine) Go(name string, fn func(t *Task)) *Task {
	if e.stopped {
		panic("sim: Go on a stopped engine")
	}
	t := &Task{eng: e, name: name, fn: fn, index: len(e.tasks)}
	e.tasks = append(e.tasks, t)
	if n := len(e.idle); n > 0 {
		t.c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		t.c = newCoro()
	}
	t.c.t = t
	e.AtArg(e.now, startTask, t)
	return t
}

// startTask is the callback of a task's start event.
func startTask(arg any) {
	if t := arg.(*Task); !t.done {
		t.eng.dispatch(t)
	}
}

// dispatch hands the virtual CPU to t until it parks or finishes. It must be
// called from engine context (inside an event callback). A task that
// finished leaves its coroutine waiting in yield, and dispatch puts it on
// the idle list for the next Go. Only dispatch does: a coroutine that Stop
// ended is never handed out again.
func (e *Engine) dispatch(t *Task) {
	prev, c := e.cur, t.c
	e.cur = t
	if e.Trace != nil {
		e.Trace(e.now, "run "+t.name)
	}
	c.next()
	e.cur = prev
	if t.done {
		e.idle = append(e.idle, c)
	}
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

// exit marks t finished, lets go of its coroutine and swap-deletes t from
// the live-task list.
func (t *Task) exit() {
	t.done = true
	t.c = nil
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
// genuine panic escaping a task's defers is re-raised, as dispatch does;
// one that Run already raised is not raised again, so Stop also ends an
// engine one of whose tasks panicked. A defer may start a task; Stop ends
// it too, unrun. Then Stop ends every idle coroutine. Defers may record
// trace events and move counters, so call Stop after the last read of the
// simulation's state, and only outside Run. A second Stop is a no-op; Run
// and Go on a stopped engine panic.
func (e *Engine) Stop() {
	e.failure = nil
	for len(e.tasks) > 0 {
		t := e.tasks[len(e.tasks)-1]
		t.killed = true
		t.c.stop()
		if !t.done { // never dispatched: stop ended the coroutine before its body
			t.exit()
		}
		e.raise()
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
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
	if !t.c.yield(struct{}{}) || t.killed {
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
	t.eng.AtArg(t.eng.now, resumeKilled, t)
}

// resumeKilled is the callback of Kill's resume event: a task still parked
// resumes, and its park unwinds it.
func resumeKilled(arg any) {
	if t := arg.(*Task); !t.done && t.parked {
		t.parked = false
		t.eng.dispatch(t)
	}
}
