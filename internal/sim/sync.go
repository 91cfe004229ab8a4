package sim

// Synchronization primitives in virtual time. Because the engine is a single
// logical thread, these need no real locking; they exist to order simulated
// threads and to let kernel code be written in natural blocking style.

// Mutex is a FIFO mutual-exclusion lock in virtual time.
type Mutex struct {
	owner   *Task
	waiters []*Task
}

// Lock acquires the mutex, parking t until it is available.
func (m *Mutex) Lock(t *Task) {
	if m.owner == nil {
		m.owner = t
		return
	}
	m.waiters = append(m.waiters, t)
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
	for len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
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
	waiters []*Task
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{n: n} }

// Acquire takes one permit, parking until one is available.
func (s *Semaphore) Acquire(t *Task) {
	if s.n > 0 {
		s.n--
		return
	}
	s.waiters = append(s.waiters, t)
	t.park()
}

// Release returns one permit, waking the longest waiter if any.
func (s *Semaphore) Release() {
	for len(s.waiters) > 0 {
		next := s.waiters[0]
		s.waiters = s.waiters[1:]
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
// for RPC replies.
type Future struct {
	set     bool
	val     any
	err     error
	waiters []*Task
}

// Set completes the future, waking all waiters. Setting twice is a no-op so
// a late reply after a timeout-triggered retry cannot corrupt state.
func (f *Future) Set(val any, err error) {
	if f.set {
		return
	}
	f.set = true
	f.val = val
	f.err = err
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		if !w.done && !w.killed {
			w.WakeSoon()
		}
	}
}

// Ready reports whether the future has been completed.
func (f *Future) Ready() bool { return f.set }

// Wait blocks until the future completes and returns its value.
func (f *Future) Wait(t *Task) (any, error) {
	for !f.set {
		f.waiters = append(f.waiters, t)
		t.park()
	}
	return f.val, f.err
}

// WaitTimeout waits at most d; ok is false if the future is still unset.
func (f *Future) WaitTimeout(t *Task, d Time) (val any, err error, ok bool) {
	if f.set {
		return f.val, f.err, true
	}
	f.waiters = append(f.waiters, t)
	deadline := t.Now() + d
	for !f.set {
		remaining := deadline - t.Now()
		if remaining <= 0 {
			return nil, nil, false
		}
		if t.BlockTimeout(remaining) && !f.set {
			// Timed out: remove self from waiters.
			for i, w := range f.waiters {
				if w == t {
					f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
					break
				}
			}
			return nil, nil, false
		}
	}
	return f.val, f.err, true
}

// Queue is an unbounded FIFO with blocking Pop; models request queues.
type Queue struct {
	items   []any
	waiters []*Task
	closed  bool
}

// Push appends an item and wakes one waiter.
func (q *Queue) Push(v any) {
	q.items = append(q.items, v)
	for len(q.waiters) > 0 {
		next := q.waiters[0]
		q.waiters = q.waiters[1:]
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
	for len(q.items) == 0 {
		if q.closed {
			return nil, false
		}
		q.waiters = append(q.waiters, t)
		t.park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Close marks the queue closed and wakes all waiters.
func (q *Queue) Close() {
	q.closed = true
	ws := q.waiters
	q.waiters = nil
	for _, w := range ws {
		if !w.done && !w.killed {
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
