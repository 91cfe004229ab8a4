package main

import (
	"container/heap"
	"runtime/debug"
	"time"
)

// The reference kernel is a miniature process-oriented discrete-event
// simulator with the host-level shape of internal/sim: a container/heap
// event queue orders wake-ups, every event carries a closure, and every
// process step updates a map, chains small allocations, and chases
// pointers through a table larger than a core's private caches, the way a
// hive spread over hundreds of megabytes of heap does. Its host time
// tracks how fast the host runs that kind of code right now, so dividing
// a unit's host time by it cancels most of the drift in a shared host's
// memory system. It never touches the program, and it does the same work on
// every call.
//
// Processes are continuations rather than goroutines: the module's lint
// (rawconc) allows raw goroutines and channels only inside internal/sim,
// internal/parallel and internal/stats, and this package is linted with
// the rest of the tree.

const (
	refProcs = 256     // concurrent processes
	refSteps = 800     // wake-ups per process
	refKeys  = 8192    // map key space
	refTable = 1 << 22 // pointer-chase table entries (16 MB)
	refHops  = 3       // dependent table loads per step
)

// refChase is a random cyclic permutation of the table's slots, built on
// first use and kept for the life of the process so that every call walks
// the same memory.
var refChase []uint32

func chaseTable() []uint32 {
	if refChase == nil {
		refChase = make([]uint32, refTable)
		rng := uint64(0x2545F4914F6CDD1D)
		perm := make([]uint32, refTable)
		for i := range perm {
			perm[i] = uint32(i)
		}
		for i := refTable - 1; i > 0; i-- { // Fisher-Yates
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			j := rng % uint64(i+1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := range perm {
			refChase[perm[i]] = perm[(i+1)%refTable]
		}
	}
	return refChase
}

type refEvent struct {
	at  int64
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type refSim struct {
	now   int64
	seq   uint64
	q     refQueue
	state map[uint32]*refRecord
	rng   uint64
	chase []uint32
	at    uint32 // current slot of the pointer chase
}

type refRecord struct {
	hits int
	last int64
	next *refRecord
}

// refProc is one process: its program counter and the work it keeps live.
type refProc struct {
	step  int
	chain *refRecord
}

func (s *refSim) after(d int64, fn func()) {
	s.seq++
	heap.Push(&s.q, &refEvent{at: s.now + d, seq: s.seq, fn: fn})
}

// rand is a xorshift generator: deterministic and allocation-free.
func (s *refSim) rand() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// run is one step of process p: update shared state through the map,
// chain a fresh record, walk the chain, and schedule the next wake-up.
func (s *refSim) run(p *refProc) {
	k := uint32(s.rand() % refKeys)
	r := s.state[k]
	if r == nil {
		r = &refRecord{}
		s.state[k] = r
	}
	r.hits++
	r.last = s.now
	p.chain = &refRecord{hits: p.step, last: s.now, next: p.chain}
	for c := p.chain; c != nil; c = c.next {
		r.hits += c.hits & 1
	}
	for i := 0; i < refHops; i++ {
		s.at = s.chase[s.at]
	}
	p.step++
	if p.step%16 == 0 {
		p.chain = nil // bound the live chain, as finished work is dropped
	}
	if p.step < refSteps {
		s.after(int64(1+s.rand()%97), func() { s.run(p) })
	}
}

// refKernel runs the reference kernel once and returns its host seconds.
// The collector is off while it runs, so its time does not depend on how
// much heap the run has leaked so far; the next forced collection frees
// what it allocated.
func refKernel() float64 {
	table := chaseTable()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	s := &refSim{state: make(map[uint32]*refRecord, refKeys), rng: 0x9E3779B97F4A7C15, chase: table}
	for i := 0; i < refProcs; i++ {
		p := &refProc{}
		s.after(int64(i), func() { s.run(p) })
	}
	for s.q.Len() > 0 {
		e := heap.Pop(&s.q).(*refEvent)
		s.now = e.at
		e.fn()
	}
	return time.Since(start).Seconds()
}
