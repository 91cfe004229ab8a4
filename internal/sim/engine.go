// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine. It is the substrate on which the machine model and the
// Hive kernels execute: simulated time is virtual (nanoseconds), concurrency
// is cooperative (exactly one task or event callback runs at a time), and
// every run with the same seed and inputs produces the same event order.
//
// The engine plays the role SimOS played for the original Hive work: it lets
// "kernel" code written in ordinary blocking style (RPCs, lock waits, disk
// I/O) execute against a virtual clock.
//
// Engines are fully self-contained: two engines share no state, so
// independent simulations may run concurrently on separate OS threads
// (see internal/parallel) with bit-identical per-engine results.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since boot.
type Time int64

// Duration aliases for readability when building latency models.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats a Time as a human-readable duration.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a float64 number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Engine is a discrete-event simulator. All mutation happens on a single
// logical thread: either the engine loop itself (running event callbacks) or
// the one task the engine has handed control to. No locking is required in
// simulation code.
type Engine struct {
	now        Time
	events     eventHeap
	nLive      int // scheduled, non-cancelled events (cancellation is lazy)
	free       []*Event
	seq        uint64
	rng        *rand.Rand
	cur        *Task
	nTasks     int
	failure    any    // panic value escaped from a task
	dispatched uint64 // total events fired since boot

	// Trace, if non-nil, receives a line for every dispatched event.
	// Used by determinism tests and debugging.
	Trace func(at Time, what string)
}

// NewEngine returns an engine with virtual time 0 and a PRNG seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG. It must only be used from
// simulation context (tasks or event callbacks) to preserve determinism.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// schedule inserts an event at absolute time t (clamped to now), drawing
// from the freelist when possible. The event either calls fn or, when task
// is non-nil, wakes task; a task wake carries no closure, so it allocates
// nothing once the freelist is warm.
func (e *Engine) schedule(t Time, fn func(), task *Task, timeout bool) *Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(Event)
	}
	*ev = Event{engine: e, at: t, seq: e.seq, fn: fn, task: task, timeout: timeout, index: -1}
	heap.Push(&e.events, ev)
	e.nLive++
	return ev
}

// atOwned schedules an engine-owned event: the pointer is never handed to
// simulation code, so the engine recycles it through the freelist as soon
// as it fires.
func (e *Engine) atOwned(t Time, fn func()) *Event {
	ev := e.schedule(t, fn, nil, false)
	ev.owned = true
	return ev
}

// recycle puts a dead event (not in the heap, no outstanding references)
// back on the freelist.
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.task = nil, nil
	e.free = append(e.free, ev)
}

// fire runs a popped event: it wakes the event's task or calls its callback,
// then recycles the event if the engine owns it. Ownership is read before
// firing, because a woken task may recycle and reuse a non-owned event
// (SleepEvent) before fire returns.
func (e *Engine) fire(ev *Event) {
	e.nLive--
	e.dispatched++
	e.now = ev.at
	owned := ev.owned
	if ev.task != nil {
		ev.task.wake(ev.timeout)
	} else {
		ev.fn()
	}
	if owned {
		e.recycle(ev)
	}
	if e.failure != nil {
		panic(e.failure)
	}
}

// release relinquishes the caller's reference to an event that has either
// fired or been cancelled. If it already left the heap it is recycled now;
// if it is still queued (lazily cancelled) the pop path reclaims it.
func (e *Engine) release(ev *Event) {
	if ev.index >= 0 {
		ev.owned = true
		return
	}
	if !ev.owned { // owned events are recycled by the dispatch loop
		e.recycle(ev)
	}
}

// At schedules fn to run at absolute virtual time t (clamped to now). The
// returned Event stays valid indefinitely: it is never recycled, so Cancel,
// Reschedule, and Pending are safe at any later point.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.schedule(t, fn, nil, false)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Run processes events until the queue is empty or the deadline passes. A
// deadline of 0 means run until idle. It panics if a task panicked
// (propagating the original value) and returns the final time.
func (e *Engine) Run(deadline Time) Time {
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.cancelled { // lazily-cancelled: discard without firing
			heap.Pop(&e.events)
			if ev.owned {
				e.recycle(ev)
			}
			continue
		}
		if deadline > 0 && ev.at > deadline {
			e.now = deadline
			break
		}
		heap.Pop(&e.events)
		e.fire(ev)
	}
	if deadline > 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Dispatched returns the total number of events fired since boot — the
// deterministic work measure the scaling suite reports as events/sec.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// LiveTasks returns the number of tasks that have been started and have not
// yet finished.
//
//hive:lint-ignore deadcode test hook: cow's TestPropertyCarefulTraversalAlwaysSurvives checks the engine drained
func (e *Engine) LiveTasks() int { return e.nTasks }

// Event is a scheduled callback or task wake. Events may be cancelled or
// rescheduled before they fire; both are used to model interrupt
// time-stealing.
type Event struct {
	engine    *Engine
	at        Time
	seq       uint64
	fn        func()
	task      *Task // if non-nil, firing calls task.wake(timeout) instead of fn
	index     int32 // heap position, -1 once out of the heap; int32 keeps Event at 48 bytes
	cancelled bool
	owned     bool // engine-owned: recycled once it leaves the heap
	timeout   bool
}

// When returns the time the event is scheduled to fire.
func (ev *Event) When() Time { return ev.at }

// Cancel prevents the event from firing. It reports whether the event was
// still pending. Cancellation is lazy: the event stays in the queue and is
// discarded when it reaches the front, so Cancel is O(1) instead of the
// O(log n) heap splice it used to be.
func (ev *Event) Cancel() bool {
	if ev.cancelled || ev.index < 0 {
		ev.cancelled = true
		return false
	}
	ev.cancelled = true
	e := ev.engine
	e.nLive--
	// Amortized cleanup: when over half the queue is cancelled garbage,
	// rebuild it so pushes stay O(log live) rather than O(log total).
	if len(e.events) >= 64 && e.nLive < len(e.events)/2 {
		e.compact()
	}
	return true
}

// Reschedule moves a still-pending event to a new absolute time. It reports
// whether the event was still pending (a fired or cancelled event cannot be
// rescheduled).
func (ev *Event) Reschedule(t Time) bool {
	if ev.cancelled || ev.index < 0 {
		return false
	}
	if t < ev.engine.now {
		t = ev.engine.now
	}
	ev.at = t
	heap.Fix(&ev.engine.events, int(ev.index))
	return true
}

// Pending reports whether the event is still scheduled.
func (ev *Event) Pending() bool { return !ev.cancelled && ev.index >= 0 }

// compact drops cancelled events from the queue and re-establishes the heap
// invariant. O(n), amortized against the cancellations that triggered it.
func (e *Engine) compact() {
	keep := e.events[:0]
	for _, ev := range e.events {
		if ev.cancelled {
			ev.index = -1
			if ev.owned {
				e.recycle(ev)
			}
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < len(e.events); i++ {
		e.events[i] = nil
	}
	for i, ev := range keep {
		ev.index = int32(i)
	}
	e.events = keep
	heap.Init(&e.events)
}

// eventHeap orders events by (time, sequence), giving FIFO order among
// simultaneous events — the property that makes runs deterministic.
// It implements container/heap.Interface.
type eventHeap []*Event

// Len implements heap.Interface.
func (h eventHeap) Len() int { return len(h) }

// Less implements heap.Interface: earlier time, then earlier sequence.
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// Swap implements heap.Interface.
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

// Push implements heap.Interface.
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = int32(len(*h))
	*h = append(*h, ev)
}

// Pop implements heap.Interface.
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
