// Package parallel fans independent, deterministic simulation jobs across
// OS threads. Every Hive experiment is an isolated simulation: it boots its
// own sim.Engine from an explicit seed and shares no mutable state with any
// other trial. That makes experiment campaigns embarrassingly parallel —
// the trials of the §7.4 fault-injection campaign, the twelve Table 7.2
// configurations, and the scalability and detection sweeps can all run
// concurrently with bit-identical per-trial results.
//
// The contract is strict: a job must not touch anything outside its own
// engine. The simulation packages keep to this (their only package-level
// state is immutable error values and calibration constants), so the same
// table comes out whether the campaign runs on one worker or sixteen.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes independent jobs on a fixed-size worker pool. A Runner is
// stateless between calls and safe for concurrent use.
type Runner struct {
	workers int
}

// New returns a Runner with the given worker count; n <= 0 means one worker
// per available CPU (GOMAXPROCS).
func New(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: n}
}

// defaultRunner is the process-wide runner used by experiment code that is
// not handed an explicit Runner. Commands set it from their -j flag.
var defaultRunner atomic.Pointer[Runner]

// Default returns the process-wide runner (one worker per CPU unless
// SetDefaultWorkers was called).
func Default() *Runner {
	if r := defaultRunner.Load(); r != nil {
		return r
	}
	return New(0)
}

// SetDefaultWorkers sets the process-wide worker count; n <= 0 restores one
// worker per CPU. Commands call this once from their -j flag before running
// experiments.
func SetDefaultWorkers(n int) { defaultRunner.Store(New(n)) }

// jobPanic records a panic captured inside a job.
type jobPanic struct {
	index int
	val   any
}

// Map runs fn(i) for every i in [0, n) on r's worker pool and returns the
// results in index order. Results are positionally stable regardless of the
// worker count or scheduling, so deterministic jobs produce byte-identical
// aggregate output at -j 1 and -j N.
//
// A panic inside one job does not disturb the others: every job runs to
// completion, and Map then re-panics with the lowest-index panic (wrapped
// with its job index) so failure reporting is deterministic too.
func Map[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	var (
		mu      sync.Mutex
		panics  []jobPanic
		workers = r.workers
	)
	if workers > n {
		workers = n
	}
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				panics = append(panics, jobPanic{index: i, val: p})
				mu.Unlock()
			}
		}()
		out[i] = fn(i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	if len(panics) > 0 {
		first := panics[0]
		for _, p := range panics[1:] {
			if p.index < first.index {
				first = p
			}
		}
		panic(fmt.Sprintf("parallel: job %d panicked: %v", first.index, first.val))
	}
	return out
}
