package sim

// Synchronization primitives in virtual time. Because the engine is a single
// logical thread, these need no real locking; they exist to order simulated
// threads and to let kernel code be written in natural blocking style.

// fifo is a first-in first-out list that keeps its array. pop advances a
// head index instead of slicing the front away, which would eat the
// array's capacity, so a list that alternates push and pop, as a server
// pool's request queue does, reuses one array instead of reallocating on
// almost every push.
type fifo[T any] struct {
	items []T // items[head:] are queued, oldest first
	head  int
}

// size returns the number of queued items.
func (f *fifo[T]) size() int { return len(f.items) - f.head }

// push queues v behind every queued item. A push onto an empty list
// restarts at the array's front; one onto a full array whose front has
// been consumed first copies the queued items down.
func (f *fifo[T]) push(v T) {
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	} else if f.head > 0 && len(f.items) == cap(f.items) {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, v)
}

// pop removes and returns the oldest item, zeroing its slot so the array
// keeps nothing alive. The list must not be empty.
func (f *fifo[T]) pop() T {
	v := f.items[f.head]
	var zero T
	f.items[f.head] = zero
	f.head++
	return v
}

// Mutex is a FIFO mutual-exclusion lock in virtual time.
type Mutex struct {
	owner   *Task
	waiters fifo[*Task]
}

// Lock acquires the mutex, parking t until it is available.
func (m *Mutex) Lock(t *Task) {
	if m.owner == nil {
		m.owner = t
		return
	}
	m.waiters.push(t)
	t.park()
}

// Unlock releases the mutex, handing it to the longest waiter if any.
func (m *Mutex) Unlock(t *Task) {
	if m.owner != t {
		panic("sim: unlock of mutex not held by task " + t.name)
	}
	m.owner = nil
	m.wakeNext()
}

func (m *Mutex) wakeNext() {
	for m.waiters.size() > 0 {
		next := m.waiters.pop()
		if next.done || next.killed {
			continue
		}
		m.owner = next
		next.WakeSoon()
		return
	}
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Semaphore is a counting semaphore in virtual time.
type Semaphore struct {
	n       int
	waiters fifo[*Task]
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{n: n} }

// Acquire takes one permit, parking until one is available.
func (s *Semaphore) Acquire(t *Task) {
	if s.n > 0 {
		s.n--
		return
	}
	s.waiters.push(t)
	t.park()
}

// Release returns one permit, waking the longest waiter if any.
func (s *Semaphore) Release() {
	for s.waiters.size() > 0 {
		next := s.waiters.pop()
		if next.done || next.killed {
			continue
		}
		next.WakeSoon()
		return
	}
	s.n++
}

// Cond is a condition variable associated with a Mutex.
type Cond struct {
	M       *Mutex
	waiters []*Task
}

// Wait atomically releases the mutex, parks, and reacquires on wake.
func (c *Cond) Wait(t *Task) {
	c.waiters = append(c.waiters, t)
	c.M.Unlock(t)
	t.park()
	c.M.Lock(t)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		if !w.done && !w.killed {
			w.WakeSoon()
		}
	}
}

// Future is a write-once value that waiters can block on; the building block
// for RPC replies. It keeps its first waiter inline, so a future with one
// waiter at a time, as every RPC call's is, allocates nothing.
type Future struct {
	set     bool
	val     any
	err     error
	first   *Task   // the earliest waiter, if it still waits
	waiters []*Task // later waiters, in arrival order
}

// Set completes the future, waking all waiters in arrival order. Setting
// twice is a no-op so a late reply after a timeout-triggered retry cannot
// corrupt state.
func (f *Future) Set(val any, err error) {
	if f.set {
		return
	}
	f.set = true
	f.val = val
	f.err = err
	first, ws := f.first, f.waiters
	f.first, f.waiters = nil, nil
	if first != nil && !first.done && !first.killed {
		first.WakeSoon()
	}
	for _, w := range ws {
		if !w.done && !w.killed {
			w.WakeSoon()
		}
	}
}

// Ready reports whether the future has been completed.
func (f *Future) Ready() bool { return f.set }

// addWaiter queues t behind every waiter already queued.
func (f *Future) addWaiter(t *Task) {
	if f.first == nil && len(f.waiters) == 0 {
		f.first = t
	} else {
		f.waiters = append(f.waiters, t)
	}
}

// removeWaiter drops t's earliest entry from the waiters.
func (f *Future) removeWaiter(t *Task) {
	if f.first == t {
		f.first = nil
		return
	}
	for i, w := range f.waiters {
		if w == t {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return
		}
	}
}

// Wait blocks until the future completes and returns its value.
func (f *Future) Wait(t *Task) (any, error) {
	for !f.set {
		f.addWaiter(t)
		t.park()
	}
	return f.val, f.err
}

// WaitTimeout waits at most d; ok is false if the future is still unset.
func (f *Future) WaitTimeout(t *Task, d Time) (val any, err error, ok bool) {
	if f.set {
		return f.val, f.err, true
	}
	f.addWaiter(t)
	deadline := t.Now() + d
	for !f.set {
		remaining := deadline - t.Now()
		if remaining <= 0 {
			return nil, nil, false
		}
		if t.BlockTimeout(remaining) && !f.set {
			f.removeWaiter(t)
			return nil, nil, false
		}
	}
	return f.val, f.err, true
}

// Queue is an unbounded FIFO with blocking Pop; models request queues.
type Queue struct {
	items   fifo[any]
	waiters fifo[*Task]
	closed  bool
}

// Push appends an item and wakes one waiter.
func (q *Queue) Push(v any) {
	q.items.push(v)
	for q.waiters.size() > 0 {
		next := q.waiters.pop()
		if next.done || next.killed {
			continue
		}
		next.WakeSoon()
		return
	}
}

// Pop removes the oldest item, blocking while the queue is empty. It returns
// ok=false if the queue is closed and drained.
func (q *Queue) Pop(t *Task) (any, bool) {
	for q.items.size() == 0 {
		if q.closed {
			return nil, false
		}
		q.waiters.push(t)
		t.park()
	}
	return q.items.pop(), true
}

// Close marks the queue closed and wakes all waiters, oldest first.
func (q *Queue) Close() {
	q.closed = true
	for q.waiters.size() > 0 {
		if w := q.waiters.pop(); !w.done && !w.killed {
			w.WakeSoon()
		}
	}
}

// Barrier is a reusable N-party barrier; recovery's double global barrier
// (§4.3 of the paper) is built on it.
type Barrier struct {
	parties int
	arrived int
	gen     int
	waiters []*Task
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier { return &Barrier{parties: n} }

// SetParties changes the party count (used when the live set shrinks after a
// cell failure). If the new count is already satisfied the barrier opens.
func (b *Barrier) SetParties(n int) {
	b.parties = n
	if b.arrived >= b.parties {
		b.open()
	}
}

// Await arrives at the barrier and blocks until all parties have arrived.
func (b *Barrier) Await(t *Task) {
	gen := b.gen
	b.arrived++
	if b.arrived >= b.parties {
		b.open()
		return
	}
	for b.gen == gen {
		b.waiters = append(b.waiters, t)
		t.park()
	}
}

func (b *Barrier) open() {
	b.gen++
	b.arrived = 0
	ws := b.waiters
	b.waiters = nil
	for _, w := range ws {
		if !w.done && !w.killed {
			w.WakeSoon()
		}
	}
}
