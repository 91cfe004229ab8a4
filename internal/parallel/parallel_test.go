package parallel_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sim"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		r := parallel.New(workers)
		got := parallel.Map(r, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	r := parallel.New(4)
	if got := parallel.Map(r, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if parallel.New(0).Workers() < 1 {
		t.Fatal("New(0) gave no workers")
	}
	if parallel.New(-3).Workers() < 1 {
		t.Fatal("New(-3) gave no workers")
	}
	if parallel.New(5).Workers() != 5 {
		t.Fatal("New(5) != 5 workers")
	}
}

func TestMapPanicCaptureDeterministic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		r := parallel.New(workers)
		ran := make([]bool, 16)
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("workers=%d: expected re-panic", workers)
				}
				// The lowest-index panic wins regardless of scheduling.
				if !strings.Contains(fmt.Sprint(p), "job 3 panicked: boom-3") {
					t.Fatalf("workers=%d: panic = %v", workers, p)
				}
			}()
			parallel.Map(r, 16, func(i int) int {
				ran[i] = true
				if i == 3 || i == 11 {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return i
			})
		}()
		// Every job still ran: one bad trial must not sink the campaign.
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: job %d never ran", workers, i)
			}
		}
	}
}

// traceHash runs a small multi-task simulation and hashes its full dispatch
// trace — a strict witness of the event order inside one engine.
func traceHash(seed int64) uint64 {
	h := fnv.New64a()
	e := sim.NewEngine(seed)
	e.Trace = func(at sim.Time, what string) {
		fmt.Fprintf(h, "%d:%s\n", at, what)
	}
	var m sim.Mutex
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("t%d", i)
		e.Go(name, func(tk *sim.Task) {
			for j := 0; j < 20; j++ {
				tk.Sleep(sim.Time(e.Rand().Intn(50)))
				m.Lock(tk)
				if tk.BlockTimeout(sim.Time(e.Rand().Intn(3))) {
					tk.Sleep(1)
				}
				m.Unlock(tk)
			}
		})
	}
	e.Run(0)
	return h.Sum64()
}

// TestEngineDeterminismUnderParallelism is the core safety property of the
// whole layer: engines running concurrently on the pool produce exactly the
// event order they produce alone.
func TestEngineDeterminismUnderParallelism(t *testing.T) {
	const n = 12
	seq := parallel.Map(parallel.New(1), n, func(i int) uint64 {
		return traceHash(int64(100 + i))
	})
	par := parallel.Map(parallel.New(8), n, func(i int) uint64 {
		return traceHash(int64(100 + i))
	})
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("seed %d: sequential hash %x != parallel hash %x", 100+i, seq[i], par[i])
		}
	}
}

func TestDefaultRunner(t *testing.T) {
	if parallel.Default().Workers() < 1 {
		t.Fatal("default runner has no workers")
	}
	parallel.SetDefaultWorkers(3)
	if parallel.Default().Workers() != 3 {
		t.Fatal("SetDefaultWorkers(3) not reflected")
	}
	parallel.SetDefaultWorkers(0) // restore per-CPU default
	if parallel.Default().Workers() < 1 {
		t.Fatal("restored default has no workers")
	}
}
